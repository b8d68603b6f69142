#include "mst/api/registry.hpp"

#include <algorithm>

#include "mst/api/solve_scratch.hpp"
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "mst/baselines/asap.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/baselines/forward_greedy.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/baselines/round_robin.hpp"
#include "mst/baselines/single_node.hpp"
#include "mst/baselines/tree_asap.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/local_search.hpp"
#include "mst/heuristics/tree_schedule.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/schedule/legs.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/streaming.hpp"

namespace mst::api {

namespace {

/// Makespan solves size their instances by the task count — the fork node
/// instance alone holds up to `p·n` jobs — so a count above the search
/// limit the decision form already honours (`SolveOptions::cap`) is
/// rejected before anything is built.
void require_within_cap(const Workload& workload, const SolveOptions& options) {
  const std::size_t limit = std::max<std::size_t>(1, options.cap);
  if (workload.count() <= limit) return;
  throw std::invalid_argument("solve: " + std::to_string(workload.count()) +
                              " tasks exceed the task limit SolveOptions::cap = " +
                              std::to_string(limit) + " (mstctl --cap)");
}

/// The capability gate: unsupported workload features are rejected up
/// front, with a message naming algorithm, feature and remedy — never
/// silently mis-scheduled.
void require_supported(std::string_view algorithm, const WorkloadFeatures& supports,
                       const WorkloadFeatures& requested) {
  if (requested.subset_of(supports)) return;
  std::ostringstream os;
  os << "algorithm '" << algorithm << "' does not support workloads with "
     << to_string(requested) << " (supported: " << to_string(supports)
     << "); see the capability matrix in mstctl --mode=list";
  throw std::invalid_argument(os.str());
}

/// Per-algorithm dispatch counter, e.g. "api.solve.optimal".  The name is
/// assembled in a stack buffer — instrumented dispatch allocates nothing the
/// uninstrumented one does not.
void count_dispatch(obs::MetricsRegistry* metrics, const char* prefix,
                    std::string_view algorithm) {
  if (metrics == nullptr) return;
  char name[obs::MetricsRegistry::kNameCapacity];
  std::snprintf(name, sizeof name, "%s%.*s", prefix, static_cast<int>(algorithm.size()),
                algorithm.data());
  metrics->counter(name).increment();
}

/// Folds a work count of the solve that just ran (`ChainCountScratch::probes`,
/// `SpiderCountScratch::nodes_built`, ...) into the deterministic counter
/// `name`.
void count_work(const SolveOptions& opts, const char* name, std::size_t value) {
  if (opts.metrics == nullptr) return;
  opts.metrics->counter(name).add(static_cast<std::int64_t>(value));
}

/// Folds the nodes the engine's earliest-completion passes visited in the
/// solve that just ran into `core.asap.ect_nodes`; a policy that never
/// chooses by earliest completion leaves no counter.
void count_ect(const SolveOptions& opts) {
  const std::size_t visited = opts.scratch->engine.state.ect_nodes();
  if (visited > 0) count_work(opts, "core.asap.ect_nodes", visited);
}

/// Effective decision cap: the search cap, clamped to a finite pool.
std::size_t decision_cap(const SolveOptions& options) {
  const std::size_t cap = std::max<std::size_t>(1, options.cap);
  const Workload* pool = options.workload.get();
  return pool != nullptr ? std::min(cap, pool->count()) : cap;
}

}  // namespace

// ---------------------------------------------------------------------------
// Results

double SolveResult::throughput() const {
  if (tasks == 0) return 0.0;
  // A nonempty schedule claiming zero (or negative) time is a degenerate
  // platform description, not a slow one — surface it as +inf so sweep
  // tables cannot silently bury it at the bottom of a ranking.
  if (makespan <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(tasks) / static_cast<double>(makespan);
}

double DecisionResult::throughput() const {
  if (tasks == 0) return 0.0;
  if (deadline <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(tasks) / static_cast<double>(deadline);
}

namespace {

void check_task_count(std::size_t claimed, std::size_t scheduled, FeasibilityReport& out) {
  if (scheduled != claimed) {
    std::ostringstream os;
    os << "task count mismatch: result claims " << claimed << " tasks, schedule holds "
       << scheduled;
    out.add_violation(os.str());
  }
}

void check_makespan(Time claimed, Time actual, bool exact, FeasibilityReport& out) {
  const bool bad = exact ? actual != claimed : actual > claimed;
  if (bad) {
    std::ostringstream os;
    os << "makespan mismatch: result claims " << claimed << ", schedule "
       << (exact ? "has" : "replays to") << " " << actual;
    out.add_violation(os.str());
  }
}

/// The payload checks shared by the makespan- and decision-form reports:
/// workload-aware Definition 1 feasibility plus task-count / makespan
/// consistency.  Results built outside the registry may carry a default
/// workload; they are checked under identical-task semantics.
FeasibilityReport check_payload(const AnySchedule& schedule, std::size_t tasks, Time makespan,
                                const Workload& workload) {
  FeasibilityReport report;
  const Workload& effective =
      workload.count() == tasks ? workload : Workload::identical(tasks);
  if (tasks > 0 && makespan <= 0) {
    std::ostringstream os;
    os << "degenerate result: " << tasks << " tasks in non-positive makespan " << makespan;
    report.add_violation(os.str());
  }
  std::visit(
      [&](const auto& payload) {
        using S = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<S, ChainSchedule> || std::is_same_v<S, SpiderSchedule>) {
          const Workload& payload_workload =
              payload.num_tasks() == effective.count() ? effective
                                                       : Workload::identical(payload.num_tasks());
          const FeasibilityReport inner = mst::check_feasibility(payload, payload_workload);
          for (const std::string& v : inner.violations()) report.add_violation(v);
          check_task_count(tasks, payload.num_tasks(), report);
          check_makespan(makespan, payload.makespan(payload_workload), /*exact=*/true, report);
        } else if constexpr (std::is_same_v<S, TreeDispatch>) {
          bool dests_ok = true;
          for (NodeId dest : payload.dests) {
            if (dest == 0 || dest >= payload.tree.size()) {
              std::ostringstream os;
              os << "dispatch destination " << dest << " is not a slave of the tree";
              report.add_violation(os.str());
              dests_ok = false;
            }
          }
          if (dests_ok) {
            // No link-level timing to verify — replay the plan operationally
            // (sizes scaled, release dates gating the master).  The replay
            // may only move work earlier (eager forwarding), so the reported
            // makespan must be an upper bound on it.
            const Workload& replay_workload =
                payload.dests.size() == effective.count()
                    ? effective
                    : Workload::identical(payload.dests.size());
            const sim::SimResult replay =
                sim::simulate_dispatch(payload.tree, payload.dests, replay_workload);
            check_task_count(tasks, replay.num_tasks(), report);
            check_makespan(makespan, replay.makespan, /*exact=*/false, report);
          }
        } else {
          report.add_violation("algorithm reported a makespan without a materialized schedule");
        }
      },
      schedule);
  return report;
}

}  // namespace

FeasibilityReport check_feasibility(const SolveResult& result) {
  return check_payload(result.schedule, result.tasks, result.makespan, result.workload);
}

FeasibilityReport check_feasibility(const DecisionResult& result) {
  FeasibilityReport report;
  if (result.tasks == 0) {
    // An empty decision result is the correct answer for an impossible
    // window (including negative deadlines); it must carry no payload and
    // claim no completion time.
    if (!std::holds_alternative<std::monostate>(result.schedule)) {
      report.add_violation("empty decision result carries a schedule payload");
    }
    if (result.makespan != 0) {
      std::ostringstream os;
      os << "empty decision result claims a makespan of " << result.makespan;
      report.add_violation(os.str());
    }
    return report;
  }
  if (result.makespan > result.deadline) {
    std::ostringstream os;
    os << "deadline exceeded: makespan " << result.makespan << " > deadline " << result.deadline;
    report.add_violation(os.str());
  }
  const FeasibilityReport payload =
      check_payload(result.schedule, result.tasks, result.makespan, result.workload);
  for (const std::string& v : payload.violations()) report.add_violation(v);
  return report;
}

// ---------------------------------------------------------------------------
// The table and its dispatch gate

namespace {

/// Runs `fn` on the caller's scratch, or on a local one when none was
/// passed — the one place a solve gets its scratch, so every entry runs a
/// single (pooled) path.
template <typename Fn>
auto with_scratch(const SolveOptions& options, Fn&& fn) {
  if (options.scratch != nullptr) return fn(options);
  SolveScratch local;
  SolveOptions scoped = options;
  scoped.scratch = &local;
  return fn(scoped);
}

/// Honors `materialize == false`: the payload goes back to the scratch.
/// Stripping a pooled payload must return its buffers, not free them —
/// count-only sweeps recycle here, every solve.
void strip_unless_materialized(AnySchedule& schedule, const SolveOptions& scoped) {
  if (scoped.materialize) return;
  scoped.scratch->recycle_schedule(std::move(schedule));
  schedule = std::monostate{};
}

/// An entry's makespan form on a provisioned scratch, payload stripped per
/// `materialize`.
SolveResult run_solve(const SolveFn& solve, const Platform& platform, const Workload& workload,
                      const SolveOptions& scoped) {
  SolveResult result = solve(platform, workload, scoped);
  strip_unless_materialized(result.schedule, scoped);
  return result;
}

/// The decision form of an entry without a native one: invert the makespan
/// form — the largest task set whose makespan fits the window, found by
/// exponential growth then binary search.  Exact whenever the makespan is
/// monotone non-decreasing in the task count.  With a finite pool
/// (`options.workload`) the probes are the pool's canonical prefixes —
/// appending a task never shrinks a makespan, so the same search applies.
DecisionResult invert_makespan(const SolveFn& solve, const Platform& platform, Time deadline,
                               const SolveOptions& options) {
  SolveOptions probe = options;
  probe.materialize = false;
  const Workload* pool = options.workload.get();
  const std::size_t cap = decision_cap(options);

  DecisionResult out;
  // Trivially-empty window (or empty pool): skip the probe solve entirely.
  if (deadline <= 0 || cap == 0) return out;

  // Instrumentation point: every makespan-form evaluation the inversion
  // spends — exponential growth, bisection and the final materializing
  // solve — lands on one counter.
  obs::Counter probes;
  if (options.metrics != nullptr) {
    probes = options.metrics->counter("api.decision.probe_solves");
  }
  const auto probe_solve = [&](std::size_t k, const SolveOptions& solve_options) {
    probes.increment();
    return run_solve(solve, platform, pool != nullptr ? pool->prefix(k) : Workload::identical(k),
                     solve_options);
  };

  const SolveResult first = probe_solve(1, probe);
  if (first.makespan > deadline) return out;

  std::size_t lo = 1;  // largest count known to fit
  Time lo_makespan = first.makespan;
  std::size_t hi = 1;  // first count known not to fit, once lo < hi
  while (lo == hi && hi < cap) {
    const std::size_t next = hi > cap / 2 ? cap : hi * 2;
    const SolveResult r = probe_solve(next, probe);
    if (r.makespan <= deadline) {
      lo = next;
      lo_makespan = r.makespan;
    }
    hi = next;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const SolveResult r = probe_solve(mid, probe);
    if (r.makespan <= deadline) {
      lo = mid;
      lo_makespan = r.makespan;
    } else {
      hi = mid;
    }
  }

  out.tasks = lo;
  out.makespan = lo_makespan;
  if (options.materialize) {
    SolveResult full = probe_solve(lo, options);
    out.makespan = full.makespan;
    out.schedule = std::move(full.schedule);
  }
  return out;
}

}  // namespace

void Registry::add(AlgorithmInfo info, SolveFn solve, DecisionFn decide) {
  if (info.name.empty()) throw std::invalid_argument("registry: algorithm name must be non-empty");
  if (solve == nullptr) throw std::invalid_argument("registry: null solve function");
  if (entry(info.kind, info.name) != nullptr) {
    throw std::invalid_argument("registry: duplicate algorithm (" + to_string(info.kind) + ", " +
                                info.name + ")");
  }
  entries_.push_back(Entry{std::move(info), std::move(solve), std::move(decide)});
}

const Registry::Entry* Registry::entry(PlatformKind kind, std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.info.kind == kind && e.info.name == name) return &e;
  }
  return nullptr;
}

const AlgorithmInfo* Registry::info(PlatformKind kind, std::string_view name) const {
  const Entry* e = entry(kind, name);
  return e != nullptr ? &e->info : nullptr;
}

bool Registry::supports(PlatformKind kind, std::string_view name,
                        const WorkloadFeatures& features) const {
  const AlgorithmInfo* entry = info(kind, name);
  return entry != nullptr && features.subset_of(entry->supports);
}

std::vector<AlgorithmInfo> Registry::list() const {
  std::vector<AlgorithmInfo> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.info);
  return out;
}

std::vector<AlgorithmInfo> Registry::list(PlatformKind kind) const {
  std::vector<AlgorithmInfo> out;
  for (const Entry& e : entries_) {
    if (e.info.kind == kind) out.push_back(e.info);
  }
  return out;
}

std::vector<std::string> Registry::names(PlatformKind kind) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.info.kind == kind) out.push_back(e.info.name);
  }
  return out;
}

const Registry::Entry& Registry::resolve(const Platform& platform, std::string_view algorithm,
                                         const Workload* workload, const char* counter,
                                         obs::MetricsRegistry* metrics) const {
  const PlatformKind kind = kind_of(platform);
  const Entry* e = entry(kind, algorithm);
  if (e != nullptr && workload != nullptr) {
    require_supported(algorithm, e->info.supports, workload->features());
  }
  count_dispatch(metrics, counter, algorithm);
  if (e == nullptr) {
    std::ostringstream os;
    os << "no algorithm '" << algorithm << "' for " << to_string(kind) << " platforms; known:";
    for (const std::string& name : names(kind)) os << " " << name;
    throw std::invalid_argument(os.str());
  }
  return *e;
}

SolveResult Registry::solve(const Platform& platform, std::string_view algorithm,
                            const Workload& workload, const SolveOptions& options) const {
  const Entry& e = resolve(platform, algorithm, &workload, "api.solve.", options.metrics);
  require_within_cap(workload, options);
  if (workload.count() == 0) throw std::invalid_argument("solve: need at least one task");
  return with_scratch(options, [&](const SolveOptions& scoped) {
    SolveResult result = run_solve(e.solve, platform, workload, scoped);
    result.algorithm = e.info.name;
    result.kind = e.info.kind;
    result.optimal = e.info.optimal;
    result.workload = workload;
    return result;
  });
}

SolveResult Registry::solve(const Platform& platform, std::string_view algorithm, std::size_t n,
                            const SolveOptions& options) const {
  return solve(platform, algorithm, Workload::identical(n), options);
}

DecisionResult Registry::solve_within(const Platform& platform, std::string_view algorithm,
                                      Time deadline, const SolveOptions& options) const {
  const Workload* pool = options.workload.get();
  const Entry& e = resolve(platform, algorithm, pool, "api.decide.", options.metrics);
  return with_scratch(options, [&](const SolveOptions& scoped) {
    DecisionResult result = e.decide != nullptr
                                ? e.decide(platform, deadline, scoped)
                                : invert_makespan(e.solve, platform, deadline, scoped);
    strip_unless_materialized(result.schedule, scoped);
    result.algorithm = e.info.name;
    result.kind = e.info.kind;
    result.deadline = deadline;
    // A count that reached the cap short of a finite pool's end may be
    // truncated, and a truncated count proves nothing.
    const bool truncated = result.tasks >= decision_cap(scoped) &&
                           (pool == nullptr || result.tasks < pool->count());
    result.optimal = e.info.optimal && !truncated;
    // The tasks that made the count: canonical prefix of the pool, or the
    // identical stream's first `tasks`.
    result.workload =
        pool != nullptr ? pool->prefix(result.tasks) : Workload::identical(result.tasks);
    return result;
  });
}

std::size_t Registry::max_tasks(const Platform& platform, std::string_view algorithm,
                                Time deadline, const SolveOptions& options) const {
  SolveOptions count_only = options;
  count_only.materialize = false;
  return solve_within(platform, algorithm, deadline, count_only).tasks;
}

// ---------------------------------------------------------------------------
// Built-in algorithms
//
// Each entry only solves: the gate above checks its inputs and stamps its
// name, kind, workload and `optimal` flag.

namespace {

SolveResult make_result(std::size_t tasks, Time makespan, Time lower_bound,
                        AnySchedule schedule) {
  SolveResult result;
  result.tasks = tasks;
  result.makespan = makespan;
  result.lower_bound = lower_bound;
  result.schedule = std::move(schedule);
  return result;
}

// NB: makespan and bound are computed into locals before the `make_result`
// call — argument evaluation order is unspecified, so `schedule.makespan()`
// must not race the `std::move(schedule)` argument.  Task `i` of the
// schedule is task `i` of `w`; the makespan scales its work by its size.
// The bound fills the scratch's one-port buffer.
template <class Schedule>
SolveResult shape_result(Schedule schedule, const Workload& w, const SolveOptions& opts) {
  const Time lb = makespan_lower_bound(legs_of(schedule), w.count(), opts.scratch->bound);
  const Time makespan = schedule.makespan(w);
  return make_result(w.count(), makespan, lb, std::move(schedule));
}

/// The spider of a fork or spider platform: a fork is its unit-leg spider
/// (the paper solves it as that spider, sections 6-7), rebuilt in place in
/// the scratch.
const Spider& spider_of(const Platform& platform, const SolveOptions& opts) {
  if (const auto* fork = std::get_if<Fork>(&platform)) {
    opts.scratch->fork.assign_fork(*fork);
    return opts.scratch->fork;
  }
  return std::get<Spider>(platform);
}

/// Runs `fn` on the platform's shape: the chain, or the spider of a fork or
/// spider (`spider_of`).
template <typename Fn>
auto on_shape(const Platform& platform, const SolveOptions& opts, Fn&& fn) {
  if (const auto* chain = std::get_if<Chain>(&platform)) return fn(*chain);
  return fn(spider_of(platform, opts));
}

DecisionResult make_decision(std::size_t tasks, Time makespan, AnySchedule schedule) {
  DecisionResult result;
  result.tasks = tasks;
  result.makespan = makespan;
  result.schedule = std::move(schedule);
  return result;
}

/// Workload features the built-ins declare.
constexpr WorkloadFeatures kReleaseOnly{/*sizes=*/false, /*release=*/true};
constexpr WorkloadFeatures kSizesAndRelease{/*sizes=*/true, /*release=*/true};
constexpr WorkloadFeatures kReleaseStreaming{/*sizes=*/false, /*release=*/true,
                                             /*streaming=*/true};
constexpr WorkloadFeatures kSizesReleaseStreaming{/*sizes=*/true, /*release=*/true,
                                                  /*streaming=*/true};

/// Wraps a decision-form schedule (the core `schedule_within` family or a
/// deadline-stopped replay) and its completion time into a DecisionResult.
/// Both stay absolute in `[0, deadline]`, so `makespan <= deadline` by
/// construction.  The schedule moves into the payload only when nonempty,
/// so an empty window yields a payload-free result and never discards a
/// pooled schedule's warm buffers.
template <typename Schedule>
DecisionResult decision_from_schedule(Schedule& schedule, Time makespan) {
  const std::size_t tasks = schedule.num_tasks();
  AnySchedule payload;
  if (tasks > 0) payload = std::move(schedule);
  return make_decision(tasks, makespan, std::move(payload));
}

/// Decision form of the horizon-anchored exact solvers (chain, spider),
/// drawing from the pool or the identical stream.  Without materialization
/// only the count sinks run: a nonempty backward construction ends exactly
/// at the horizon, so the completion time is `deadline` itself (release
/// dates included — the horizon anchor is unchanged).
template <typename Core, typename Topology, typename CountScratch, typename Scratch,
          typename Schedule>
DecisionResult horizon_decision(const Topology& topology, Time deadline, const SolveOptions& opts,
                                CountScratch& count_scratch, Scratch& scratch, Schedule& pooled) {
  if (deadline <= 0) return {};
  const Workload* pool = opts.workload.get();
  const std::size_t cap = decision_cap(opts);
  const Workload stream = Workload::identical(cap);
  const Workload& tasks_from = pool != nullptr ? *pool : stream;
  if (!opts.materialize) {
    const std::size_t tasks =
        Core::count_within(topology, deadline, tasks_from, cap, count_scratch);
    return make_decision(tasks, tasks > 0 ? deadline : 0, {});
  }
  Core::schedule_within_into(topology, deadline, tasks_from, cap, scratch, pooled);
  return decision_from_schedule(pooled, pooled.makespan());
}

/// Decision form of the exhaustive oracles: exact count from the monotone
/// makespan staircase, optionally materialized as the optimal schedule of
/// that count (its makespan fits the window by definition of the count).
template <typename Shape>
DecisionResult brute_force_decision(const Shape& shape, Time deadline,
                                    const SolveOptions& options) {
  const std::size_t cap = decision_cap(options);
  const std::size_t tasks =
      deadline > 0 && cap > 0 ? brute_force_max_tasks(shape, deadline, cap) : 0;
  Time makespan = 0;
  AnySchedule payload;
  if (tasks > 0) {
    if (options.materialize) {
      auto schedule = brute_force_schedule(shape, tasks);
      makespan = schedule.makespan();
      payload = std::move(schedule);
    } else {
      makespan = brute_force_makespan(shape, tasks);
    }
  }
  return make_decision(tasks, makespan, std::move(payload));
}

/// Registers one streaming entry: `replan` on an exactly-solved kind, or an
/// `online-*` policy on trees.  The makespan form runs the policy the name
/// denotes (`sim::make_named_policy`) through the no-lookahead streaming
/// driver over the workload's release stream (`sim/streaming.hpp`), and
/// materializes the dispatch plan on the platform's store-and-forward
/// substrate.  With every task released at 0 the replan policy's single
/// plan is the offline optimum and the simulated makespan matches it.  The
/// streaming capability flag is what `mode=stream` sweep cells and
/// `mstctl --mode=stream` key on.
void register_streaming(Registry& r, PlatformKind k, const char* name, const char* summary,
                        WorkloadFeatures supports) {
  r.add({k, name, summary, /*optimal=*/false, /*exponential=*/false, supports},
        [name](const Platform& p, const Workload& w, const SolveOptions& opts) {
          // The plan lives in the pooled dispatch, as for every tree entry: a
          // tree platform copies into its warm capacity.
          TreeDispatch& pooled = opts.scratch->tree_pool;
          if (const auto* tree = std::get_if<Tree>(&p)) {
            pooled.tree = *tree;
          } else {
            pooled.tree = sim::stream_substrate(p);
          }
          const std::unique_ptr<sim::StreamPolicy> policy =
              sim::make_named_policy(p, pooled.tree, name, opts.seed);
          const sim::SimResult run = sim::drive_stream(pooled.tree, w, *policy);
          if (opts.metrics != nullptr) policy->count_work(*opts.metrics);
          pooled.dests.clear();
          for (const sim::SimTask& task : run.tasks) pooled.dests.push_back(task.dest);
          return make_result(w.count(), run.makespan, /*lower_bound=*/0, std::move(pooled));
        });
}

void register_replan(Registry& r, PlatformKind k) {
  register_streaming(r, k, "replan",
                     "horizon re-planning per arrival (exact plan, held or re-solved)",
                     kReleaseStreaming);
}

/// The scratch's pooled schedule for a shape's payload.
ChainSchedule& pool_for(const Chain&, SolveScratch& scratch) { return scratch.chain_pool; }
SpiderSchedule& pool_for(const Spider&, SolveScratch& scratch) { return scratch.spider_pool; }

/// An engine baseline's makespan form on `shape`: `policy(shape, w, state,
/// out)` replays on the scratch's engine state into the shape's pooled
/// schedule, so a warm solve allocates nothing.
template <typename Shape, typename Policy>
SolveResult replay_solve(const Shape& shape, const Workload& w, const SolveOptions& opts,
                         const Policy& policy) {
  auto& pooled = pool_for(shape, *opts.scratch);
  policy(shape, w, opts.scratch->engine.state, pooled);
  count_ect(opts);
  return shape_result(std::move(pooled), w, opts);
}

/// A prefix-stable engine baseline's decision form on `shape`, in one
/// replay: `policy(shape, tasks, state, out, stop)` commits tasks from the
/// pool, or from the identical stream, up to the cap and stops before the
/// first that would complete after `deadline`.  The kept prefix is the
/// answer and the payload; nothing is solved twice.
template <typename Shape, typename Policy>
DecisionResult replay_decision(const Shape& shape, Time deadline, const SolveOptions& opts,
                               const Policy& policy) {
  if (deadline <= 0) return {};
  const Workload* pool = opts.workload.get();
  const std::size_t cap = decision_cap(opts);
  const Workload stream = Workload::identical(cap);
  auto& pooled = pool_for(shape, *opts.scratch);
  const Time makespan = policy(shape, pool != nullptr ? *pool : stream,
                               opts.scratch->engine.state, pooled, ReplayStop{cap, deadline});
  count_ect(opts);
  return decision_from_schedule(pooled, makespan);
}

/// Registers one ASAP-engine baseline for an exact kind (`replay_solve`).
/// A prefix-stable policy also answers the decision form natively
/// (`replay_decision`); the others go through the makespan inversion.
template <bool kPrefixStable, typename Policy>
void add_engine_baseline(Registry& r, PlatformKind k, const char* name, const char* summary,
                         Policy policy) {
  DecisionFn decide;
  if constexpr (kPrefixStable) {
    decide = [policy](const Platform& p, Time deadline, const SolveOptions& opts) {
      return on_shape(p, opts, [&](const auto& shape) {
        return replay_decision(shape, deadline, opts, policy);
      });
    };
  }
  r.add({k, name, summary, /*optimal=*/false, /*exponential=*/false, kSizesAndRelease},
        [policy](const Platform& p, const Workload& w, const SolveOptions& opts) {
          return on_shape(p, opts,
                          [&](const auto& shape) { return replay_solve(shape, w, opts, policy); });
        },
        std::move(decide));
}

/// The forward-greedy, round-robin and single-node baselines, registered
/// the same way for chains, forks and spiders.  Forward greedy and round
/// robin are prefix-stable; the best single pipeline of `n` tasks is not.
void register_engine_baselines(Registry& r, PlatformKind k) {
  add_engine_baseline<true>(r, k, "forward-greedy", "earliest-completion-time list scheduling",
                            [](const auto& shape, const Workload& w, TreeAsapState& state,
                               auto& out, const ReplayStop& stop = {}) {
                              return forward_greedy(shape, w, state, out, stop);
                            });
  add_engine_baseline<true>(r, k, "round-robin", "heterogeneity-blind cyclic dispatch",
                            [](const auto& shape, const Workload& w, TreeAsapState& state,
                               auto& out, const ReplayStop& stop = {}) {
                              return round_robin(shape, w, state, out, stop);
                            });
  const char* pipeline_summary =
      k == PlatformKind::kChain  ? "best single-processor pipeline (generalized T-infinity)"
      : k == PlatformKind::kFork ? "best single-slave pipeline"
                                 : "best single-processor pipeline over all legs";
  add_engine_baseline<false>(r, k, "single-node", pipeline_summary,
                             [](const auto& shape, const Workload& w, TreeAsapState& state,
                                auto& out) { single_node(shape, w, state, out); });
}

/// The exhaustive oracle of an exact kind, identical workloads only.
void register_brute_force(Registry& r, PlatformKind k) {
  r.add({k, "brute-force", "exhaustive destination-sequence search", /*optimal=*/true,
         /*exponential=*/true, WorkloadFeatures{}},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          return on_shape(p, opts, [&](const auto& shape) {
            return shape_result(brute_force_schedule(shape, w.count()), w, opts);
          });
        },
        [](const Platform& p, Time deadline, const SolveOptions& opts) {
          return on_shape(p, opts, [&](const auto& shape) {
            return brute_force_decision(shape, deadline, opts);
          });
        });
}

void register_chain_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kChain;
  r.add({k, "optimal", "backward construction, Theorem 1 (O(n*p))", /*optimal=*/true,
         /*exponential=*/false, kReleaseOnly},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          const Chain& chain = std::get<Chain>(p);
          // Identical workloads run the classic construction; release dates
          // anchor it at the minimal feasible horizon instead.
          ChainSchedule& pooled = opts.scratch->chain_pool;
          ChainScheduler::schedule_into(chain, w, opts.scratch->chain, pooled);
          count_work(opts, "core.chain.probes", opts.scratch->chain.probes);
          return shape_result(std::move(pooled), w, opts);
        },
        [](const Platform& p, Time deadline, const SolveOptions& opts) {
          return horizon_decision<ChainScheduler>(std::get<Chain>(p), deadline, opts,
                                                  opts.scratch->chain, opts.scratch->chain,
                                                  opts.scratch->chain_pool);
        });
  register_engine_baselines(r, k);
  // The repeated periodic block's destinations, ASAP: prefix-stable.  Its
  // rates and counts are rebuilt in the scratch.
  const auto periodic = [](const SolveOptions& opts) {
    return [&buffers = opts.scratch->periodic](const Chain& chain, const Workload& w,
                                               TreeAsapState& state, ChainSchedule& out,
                                               const ReplayStop& stop = {}) {
      return chain_periodic(chain, w, buffers, state, out, stop);
    };
  };
  r.add({k, "periodic", "bandwidth-centric periodic pattern, ASAP prefix", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        [periodic](const Platform& p, const Workload& w, const SolveOptions& opts) {
          return replay_solve(std::get<Chain>(p), w, opts, periodic(opts));
        },
        [periodic](const Platform& p, Time deadline, const SolveOptions& opts) {
          return replay_decision(std::get<Chain>(p), deadline, opts, periodic(opts));
        });
  register_brute_force(r, k);
  register_replan(r, k);
}

/// The spider's exact solve, which the fork's `optimal` and `greedy`
/// entries register too: the paper's §6 ascending-`c` greedy is the spider
/// pipeline's identical-task selection on unit legs, and the spider's start
/// pass starts each task on its slave as soon as it has arrived, as §6 does.
SolveResult spider_solve(const Platform& p, const Workload& w, const SolveOptions& opts) {
  SpiderSolveScratch& scratch = opts.scratch->spider;
  SpiderSchedule& pooled = opts.scratch->spider_pool;
  SpiderScheduler::schedule_into(spider_of(p, opts), w, scratch, pooled);
  count_work(opts, "core.spider.nodes_built", scratch.count.nodes_built);
  count_work(opts, "core.spider.probes", scratch.count.probes);
  return shape_result(std::move(pooled), w, opts);
}

/// The fork's decision form, registered by `optimal` and `greedy`.  Unlike
/// a spider decision, which keeps its planned starts and reports the
/// window, a fork decision starts its tasks early and reports their
/// completion, so every decision materializes, even when `materialize` is
/// off (the gate strips the payload back into the pool).
DecisionResult fork_decision(const Platform& p, Time deadline, const SolveOptions& opts) {
  if (deadline <= 0) return {};
  const Workload* pool = opts.workload.get();
  const std::size_t cap = decision_cap(opts);
  const Workload stream = Workload::identical(cap);
  SpiderSolveScratch& scratch = opts.scratch->spider;
  SpiderSchedule& pooled = opts.scratch->spider_pool;
  SpiderScheduler::schedule_within_into(spider_of(p, opts), deadline,
                                        pool != nullptr ? *pool : stream, cap, scratch, pooled);
  SpiderScheduler::start_early(scratch, pooled);
  count_work(opts, "core.spider.nodes_built", scratch.count.nodes_built);
  return decision_from_schedule(pooled, pooled.makespan());
}

void register_fork_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kFork;
  r.add({k, "optimal", "ascending-c greedy over Fig 6 nodes; positional-release DP",
         /*optimal=*/true, /*exponential=*/false, kReleaseOnly},
        spider_solve, fork_decision);
  r.add({k, "greedy", "the paper's ascending-c greedy (Beaumont et al.)", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        spider_solve, fork_decision);
  register_engine_baselines(r, k);
  register_brute_force(r, k);
  register_replan(r, k);
}

void register_spider_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kSpider;
  r.add({k, "optimal", "Fig 7 nodes + ascending-c greedy or release DP, Theorem 3",
         /*optimal=*/true, /*exponential=*/false, kReleaseOnly},
        spider_solve,
        [](const Platform& p, Time deadline, const SolveOptions& opts) {
          SpiderSolveScratch& scratch = opts.scratch->spider;
          scratch.count.nodes_built = 0;  // an empty window solves nothing
          DecisionResult result = horizon_decision<SpiderScheduler>(
              std::get<Spider>(p), deadline, opts, scratch.count, scratch,
              opts.scratch->spider_pool);
          count_work(opts, "core.spider.nodes_built", scratch.count.nodes_built);
          return result;
        });
  register_engine_baselines(r, k);
  register_brute_force(r, k);
  register_replan(r, k);
}

/// The tree forward greedy on the scratch's engine into the pooled
/// dispatch: at most `n` tasks, stopped before the first that would
/// complete after `deadline`.  Returns the makespan of the tasks kept.
Time tree_greedy(const Platform& p, std::size_t n, Time deadline, const SolveOptions& opts) {
  const Tree& tree = std::get<Tree>(p);
  TreeDispatch& pooled = opts.scratch->tree_pool;
  TreeAsapState& state = opts.scratch->engine.state;
  state.assign(tree);
  const Time makespan = forward_greedy_tree_into(n, state, pooled.dests, deadline);
  count_ect(opts);
  pooled.tree = tree;
  return makespan;
}

void register_tree_algorithms(Registry& r) {
  const PlatformKind k = PlatformKind::kTree;
  // The three offline heuristics (identical workloads only) run on the
  // SolveScratch, which pools the dispatch plan and the pipeline working
  // sets; with warm scratch their per-solve allocation count is independent
  // of `n`.
  r.add({k, "spider-cover", "optimal plan on the best-rate spider cover (section 8)",
         /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          const Tree& tree = std::get<Tree>(p);
          const std::size_t n = w.count();
          TreeDispatch& pooled = opts.scratch->tree_pool;
          Time makespan = 0;
          schedule_tree_via_cover_into(tree, n, opts.scratch->tree_cover, pooled.dests, makespan);
          pooled.tree = tree;
          return make_result(n, makespan, /*lower_bound=*/0, std::move(pooled));
        });
  r.add({k, "forward-greedy", "earliest-completion-time dispatch on the full tree",
         /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          const Time makespan = tree_greedy(p, w.count(), kNoDeadline, opts);
          return make_result(w.count(), makespan, /*lower_bound=*/0,
                             std::move(opts.scratch->tree_pool));
        },
        // Prefix-stable: one greedy run over the identical stream (or
        // pool), stopped before the first task past the deadline.
        [](const Platform& p, Time deadline, const SolveOptions& opts) {
          if (deadline <= 0) return DecisionResult{};
          const Time makespan = tree_greedy(p, decision_cap(opts), deadline, opts);
          TreeDispatch& pooled = opts.scratch->tree_pool;
          const std::size_t tasks = pooled.dests.size();
          if (tasks == 0) return DecisionResult{};
          return make_decision(tasks, makespan, std::move(pooled));
        });
  r.add({k, "local-search", "greedy start + reassign/swap descent", /*optimal=*/false,
         /*exponential=*/false, WorkloadFeatures{}},
        [](const Platform& p, const Workload& w, const SolveOptions& opts) {
          const Tree& tree = std::get<Tree>(p);
          const std::size_t n = w.count();
          TreeDispatch& pooled = opts.scratch->tree_pool;
          LocalSearchResult improved =
              local_search_tree(tree, n, opts.scratch->engine, std::move(pooled.dests));
          count_work(opts, "heuristics.local_search.commits", improved.commits);
          pooled.dests = std::move(improved.dests);
          pooled.tree = tree;
          return make_result(n, improved.makespan, /*lower_bound=*/0, std::move(pooled));
        });
  // The online policies run on the discrete-event simulator, which executes
  // per-task sizes and release dates natively — the arrival-process axis of
  // the scenario engine lands here.  Their one implementation is the
  // no-lookahead stream policy (the `streaming` capability flag), which is
  // also what `mode=stream` sweep cells key on.  `online-random` is
  // deterministic per SolveOptions::seed, so mstctl runs are reproducible.
  register_streaming(r, k, "online-ect", "simulated online earliest-completion policy",
                     kSizesReleaseStreaming);
  register_streaming(r, k, "online-jsq", "simulated online join-shortest-queue policy",
                     kSizesReleaseStreaming);
  register_streaming(r, k, "online-round-robin", "simulated online round-robin policy",
                     kSizesReleaseStreaming);
  register_streaming(r, k, "online-random",
                     "simulated online uniform-random policy (SolveOptions::seed)",
                     kSizesReleaseStreaming);
}

}  // namespace

Registry& Registry::instance() {
  // `* const`: the pointer is written exactly once, under the C++11
  // thread-safe static-initialization guarantee; the Registry it points to
  // is fully populated before the first reference escapes.
  static Registry* const shared = [] {
    auto* r = new Registry();
    register_chain_algorithms(*r);
    register_fork_algorithms(*r);
    register_spider_algorithms(*r);
    register_tree_algorithms(*r);
    return r;
  }();
  return *shared;
}

Registry& registry() { return Registry::instance(); }

std::string default_algorithm(PlatformKind kind) {
  if (registry().info(kind, "optimal") != nullptr) return "optimal";
  const std::vector<std::string> names = registry().names(kind);
  if (names.empty()) {
    throw std::invalid_argument("no algorithms registered for " + to_string(kind) +
                                " platforms");
  }
  return names.front();
}

}  // namespace mst::api
