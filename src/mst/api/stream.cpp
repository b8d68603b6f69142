#include "mst/api/stream.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mst/obs/metrics.hpp"

namespace mst::api {

double StreamOutcome::throughput() const {
  if (tasks == 0) return 0.0;
  if (makespan <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(tasks) / static_cast<double>(makespan);
}

void attach_offline_reference(StreamOutcome& outcome, const Platform& platform,
                              const Workload& workload, const Registry& registry,
                              obs::MetricsRegistry* metrics) {
  // Exact offline reference: the kind's "optimal" entry, when it is
  // registered, provably optimal, and able to schedule this workload.
  //
  // Provably is the operative word.  The chain release-date construction is
  // exact (minimal-horizon anchoring, Lemma 4 suffix optimality), but the
  // fork/spider positional-release selection commits to one EDD emission
  // order, which the exhaustive release-gated ASAP oracle beats on some
  // instances — a streamed execution can then undercut the claimed
  // "optimum" and regret would dip below 1.  Until an exact released
  // selection exists (ROADMAP), released fork/spider runs report the
  // sentinel instead of a regret against a beatable reference.
  if (workload.empty()) return;
  const PlatformKind kind = kind_of(platform);
  const bool reference_is_exact =
      kind == PlatformKind::kChain || !workload.has_release_dates();
  if (const AlgorithmInfo* offline = registry.info(kind, "optimal");
      reference_is_exact && offline != nullptr && offline->optimal &&
      workload.features().subset_of(offline->supports)) {
    SolveOptions fast;
    fast.materialize = false;
    fast.metrics = metrics;
    outcome.offline_makespan = registry.solve(platform, "optimal", workload, fast).makespan;
  }
  // The regret sentinel stays negative unless both makespans are genuinely
  // positive — a degenerate zero-makespan run must never put inf/nan into a
  // report column.
  if (outcome.offline_makespan > 0 && outcome.makespan > 0) {
    outcome.regret =
        static_cast<double>(outcome.makespan) / static_cast<double>(outcome.offline_makespan);
  }
}

StreamOutcome run_stream(const Platform& platform, std::string_view algorithm,
                         const Workload& workload, std::uint64_t seed,
                         const Registry& registry, bool attach_reference,
                         const obs::Observation& observation) {
  const PlatformKind kind = kind_of(platform);
  const AlgorithmInfo* info = registry.info(kind, algorithm);
  if (info == nullptr) {
    std::ostringstream os;
    os << "no algorithm '" << algorithm << "' for " << to_string(kind) << " platforms";
    throw std::invalid_argument(os.str());
  }
  // The up-front streaming gate: requested features are the workload's plus
  // the streaming capability itself.
  WorkloadFeatures requested = workload.features();
  requested.streaming = true;
  if (!requested.subset_of(info->supports)) {
    std::ostringstream os;
    os << "algorithm '" << algorithm << "' cannot run in streaming mode with "
       << to_string(requested) << " (supported: " << to_string(info->supports)
       << "); see the capability matrix in mstctl --mode=list";
    throw std::invalid_argument(os.str());
  }

  const Tree tree = sim::stream_substrate(platform);
  const std::unique_ptr<sim::StreamPolicy> policy =
      sim::make_named_policy(platform, tree, algorithm, seed);

  if (observation.metrics != nullptr) {
    observation.metrics->counter("api.stream.runs").increment();
  }

  StreamOutcome out;
  out.algorithm = std::string(algorithm);
  out.kind = kind;
  if (!workload.empty()) {
    sim::StreamResult run = sim::simulate_stream(tree, workload, *policy, observation);
    if (observation.metrics != nullptr) policy->count_work(*observation.metrics);
    out.tasks = run.sim.num_tasks();
    out.makespan = run.sim.makespan;
    out.metrics = std::move(run.metrics);
    out.sim = std::move(run.sim);
  }

  if (attach_reference) {
    attach_offline_reference(out, platform, workload, registry, observation.metrics);
  }
  return out;
}

}  // namespace mst::api
