// REGRET: online-vs-offline throughput over arrival intensity — what the
// paper's offline optimality is worth once tasks arrive one at a time and
// `n` is unknown.
//
// Every online cell runs the no-lookahead streaming driver
// (mst/sim/streaming.hpp): the policy observes arrivals only, never the
// task count.  The reported ratio is online/offline *throughput*
// (equivalently offline/online makespan), so 1.0 means the stream lost
// nothing and smaller is worse.  Offline references are exact only where
// the library's optimality proofs reach: chains under any release stream
// (minimal-horizon backward construction), forks and spiders at the
// everything-at-time-0 point (Theorems 1/3); elsewhere the ratio column
// shows "-".  On every exact-offline cell the ratio must be <= 1 — the
// streamed execution is a feasible schedule of the same workload — and the
// driver exits nonzero if any cell violates that.
//
//   exp_online_regret [--seed=S] [--tasks=N]

#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "mst/common/cli.hpp"
#include "mst/common/table.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/arrival.hpp"

namespace {

using namespace mst;

struct PolicyRun {
  std::string name;
  Time makespan = 0;
  double mean_latency = 0;
  std::size_t peak_backlog = 0;
};

/// All streaming policies applicable to `platform`: the re-planner on
/// exactly solved kinds, the four adapted dispatchers everywhere.
std::vector<PolicyRun> run_policies(const api::Platform& platform, const Workload& workload,
                                    std::uint64_t seed) {
  std::vector<PolicyRun> runs;
  const Tree substrate = sim::stream_substrate(platform);
  if (api::kind_of(platform) != api::PlatformKind::kTree) {
    const std::unique_ptr<sim::StreamPolicy> replan = sim::make_replan_policy(platform);
    const sim::StreamResult r = sim::simulate_stream(substrate, workload, *replan);
    runs.push_back({"replan", r.sim.makespan, r.metrics.mean_latency, r.metrics.peak_backlog});
  }
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    const std::unique_ptr<sim::StreamPolicy> adapted =
        sim::make_stream_policy(substrate, policy, seed);
    const sim::StreamResult r = sim::simulate_stream(substrate, workload, *adapted);
    runs.push_back({to_string(policy), r.sim.makespan, r.metrics.mean_latency,
                    r.metrics.peak_backlog});
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mst;
  const Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  const auto n = static_cast<std::size_t>(args.get_int("tasks", 24));

  std::cout << "REGRET — online/offline throughput ratio over arrival intensity\n"
            << "(" << n << " tasks; gap 0 = everything released at time 0; ratio 1.0 = the\n"
            << "stream lost nothing; '-' = no exact offline reference for the cell)\n\n";

  const std::vector<Time> gaps = {0, 1, 2, 4, 8, 16};
  std::size_t exact_cells = 0;
  std::size_t violations = 0;

  Table table({"kind", "platform", "gap", "policy", "online", "offline", "ratio", "latency",
               "backlog"});
  for (api::PlatformKind kind :
       {api::PlatformKind::kChain, api::PlatformKind::kFork, api::PlatformKind::kSpider}) {
    for (std::size_t instance = 0; instance < 2; ++instance) {
      scenario::PlatformSpec spec;
      spec.kind = kind;
      spec.size = 3;
      spec.lo = 1;
      spec.hi = 9;
      const std::uint64_t platform_seed =
          scenario::derive_seed(seed, static_cast<std::uint64_t>(kind), instance);
      const api::Platform platform = scenario::make_platform(spec, platform_seed);
      for (Time gap : gaps) {
        WorkloadGen gen;
        if (gap > 0) gen.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, gap, 0};
        const Workload workload =
            gen.make(n, scenario::derive_seed(seed, 0xA881, platform_seed, gap));

        // Exact offline optimum where the proofs reach; 0 elsewhere.
        Time offline = 0;
        if (const auto* chain = std::get_if<Chain>(&platform)) {
          offline = ChainScheduler::schedule(*chain, workload).makespan();
        } else if (!workload.has_release_dates()) {
          offline = std::holds_alternative<Fork>(platform)
                        ? SpiderScheduler::makespan(Spider::from_fork(std::get<Fork>(platform)), n)
                        : SpiderScheduler::makespan(std::get<Spider>(platform), n);
        }

        for (const PolicyRun& run : run_policies(platform, workload, seed)) {
          Table& row = table.row();
          row.cell(to_string(kind))
              .cell(std::to_string(instance))
              .cell(gap)
              .cell(run.name)
              .cell(run.makespan);
          if (offline > 0 && run.makespan > 0) {
            const double ratio =
                static_cast<double>(offline) / static_cast<double>(run.makespan);
            ++exact_cells;
            if (ratio > 1.0 + 1e-12) ++violations;
            row.cell(offline).cell(ratio, 4);
          } else {
            row.cell("-").cell("-");
          }
          row.cell(run.mean_latency, 2).cell(run.peak_backlog);
        }
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nexact-offline cells: " << exact_cells << ", ratio > 1 violations: "
            << violations << "\n";
  if (violations > 0) {
    std::cout << "FAIL: an online stream beat a provably optimal offline schedule\n";
    return 1;
  }
  std::cout << "PASS: every exact-offline cell has online/offline throughput <= 1\n"
            << "\nReading: the re-planner tracks the optimum closely at low intensity\n"
               "(large gaps leave the backlog shallow) and degenerates gracefully to it\n"
               "at gap 0; the heterogeneity-blind dispatchers pay the full online tax.\n";
  return 0;
}
