// Tests of the algorithm registry (mst/api/registry.hpp): enumeration,
// lookup, the dispatch gate, custom registration, and — the load-bearing one —
// that every registered (platform kind, algorithm) pair produces a
// feasible schedule of the requested size on a small instance.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

Fork small_fork() { return Fork{{2, 3}, {1, 4}, {3, 2}}; }

Spider small_spider() {
  return Spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
}

Tree small_tree() {
  // Master -> a -> b, master -> c: a spider-unfriendly branch below `a`.
  Tree tree;
  const NodeId a = tree.add_node(0, {2, 3});
  tree.add_node(a, {1, 2});
  tree.add_node(a, {2, 4});
  tree.add_node(0, {3, 2});
  return tree;
}

api::Platform platform_of(api::PlatformKind kind) {
  switch (kind) {
    case api::PlatformKind::kChain: return fig2_chain();
    case api::PlatformKind::kFork: return small_fork();
    case api::PlatformKind::kSpider: return small_spider();
    case api::PlatformKind::kTree: return small_tree();
  }
  throw std::logic_error("unreachable");
}

TEST(Registry, KindNamesRoundTrip) {
  for (api::PlatformKind kind : api::all_platform_kinds()) {
    EXPECT_EQ(api::platform_kind_from(api::to_string(kind)), kind);
  }
  EXPECT_FALSE(api::platform_kind_from("grid").has_value());
}

TEST(Registry, KindOfMatchesAlternative) {
  EXPECT_EQ(api::kind_of(fig2_chain()), api::PlatformKind::kChain);
  EXPECT_EQ(api::kind_of(small_fork()), api::PlatformKind::kFork);
  EXPECT_EQ(api::kind_of(small_spider()), api::PlatformKind::kSpider);
  EXPECT_EQ(api::kind_of(small_tree()), api::PlatformKind::kTree);
  EXPECT_EQ(api::num_processors(api::Platform(fig2_chain())), 2u);
  EXPECT_EQ(api::num_processors(api::Platform(small_tree())), 4u);
}

TEST(Registry, EveryKindHasAlgorithms) {
  for (api::PlatformKind kind : api::all_platform_kinds()) {
    EXPECT_FALSE(api::registry().names(kind).empty()) << api::to_string(kind);
  }
  // "optimal" exists for every exactly-solved family.
  for (api::PlatformKind kind : {api::PlatformKind::kChain, api::PlatformKind::kFork,
                                 api::PlatformKind::kSpider}) {
    EXPECT_NE(api::registry().info(kind, "optimal"), nullptr);
  }
}

// The acceptance test of the registration contract: every entry solves a
// small instance into a feasible schedule holding exactly `n` tasks.
TEST(Registry, EveryAlgorithmProducesFeasibleSchedules) {
  const std::size_t n = 6;
  for (const api::AlgorithmInfo& info : api::registry().list()) {
    const api::Platform platform = platform_of(info.kind);
    const api::SolveResult result = api::registry().solve(platform, info.name, n);
    SCOPED_TRACE(api::to_string(info.kind) + "/" + info.name);
    EXPECT_EQ(result.tasks, n);
    EXPECT_EQ(result.kind, info.kind);
    EXPECT_EQ(result.algorithm, info.name);
    EXPECT_EQ(result.optimal, info.optimal);
    EXPECT_GT(result.makespan, 0);
    const FeasibilityReport report = api::check_feasibility(result);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

// A fork schedule is the schedule of the fork's unit-leg spider: every fork
// entry that places tasks (all but the streaming `replan`, whose payload is
// a tree dispatch plan) returns the `SpiderSchedule` of `Spider::from_fork`
// in both forms, and the spider checker accepts it.
TEST(Registry, ForkEntriesMaterializeUnitLegSpiderSchedules) {
  const Fork fork = small_fork();
  const Spider unit_legs = Spider::from_fork(fork);
  for (const api::AlgorithmInfo& info : api::registry().list(api::PlatformKind::kFork)) {
    if (info.name == "replan") continue;
    SCOPED_TRACE(info.name);
    const api::SolveResult solved = api::registry().solve(fork, info.name, 6);
    const api::DecisionResult decided = api::registry().solve_within(fork, info.name, 12);
    for (const api::AnySchedule* payload : {&solved.schedule, &decided.schedule}) {
      const auto* schedule = std::get_if<SpiderSchedule>(payload);
      ASSERT_NE(schedule, nullptr);
      EXPECT_EQ(schedule->spider, unit_legs);
      EXPECT_GT(schedule->num_tasks(), 0u);
      const FeasibilityReport report = check_feasibility(*schedule);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

// No heuristic may beat the provably optimal makespan, and every optimal
// entry must agree with the core scheduler it wraps.
TEST(Registry, OptimalEntriesMatchCoreSchedulers) {
  const std::size_t n = 7;
  EXPECT_EQ(api::registry().solve(fig2_chain(), "optimal", n).makespan,
            ChainScheduler::makespan(fig2_chain(), n));
  EXPECT_EQ(api::registry().solve(small_fork(), "optimal", n).makespan,
            SpiderScheduler::makespan(Spider::from_fork(small_fork()), n));
  EXPECT_EQ(api::registry().solve(small_spider(), "optimal", n).makespan,
            SpiderScheduler::makespan(small_spider(), n));

  for (api::PlatformKind kind : {api::PlatformKind::kChain, api::PlatformKind::kFork,
                                 api::PlatformKind::kSpider}) {
    const api::Platform platform = platform_of(kind);
    const Time optimal = api::registry().solve(platform, "optimal", n).makespan;
    for (const api::AlgorithmInfo& info : api::registry().list(kind)) {
      const api::SolveResult result = api::registry().solve(platform, info.name, n);
      SCOPED_TRACE(api::to_string(kind) + "/" + info.name);
      EXPECT_GE(result.makespan, optimal);
      if (info.optimal) {
        EXPECT_EQ(result.makespan, optimal);
      }
      EXPECT_LE(result.lower_bound, result.makespan);
    }
  }
}

TEST(Registry, RandomInstancesStayFeasible) {
  Rng rng(0xC0FFEE);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  for (int t = 0; t < 10; ++t) {
    Rng inst = rng.split();
    const Spider spider = random_spider(inst, 3, 3, params);
    const Tree tree = random_tree(inst, 6, params);
    for (const api::AlgorithmInfo& info : api::registry().list(api::PlatformKind::kSpider)) {
      if (info.exponential) continue;
      const api::SolveResult result = api::registry().solve(spider, info.name, 9);
      SCOPED_TRACE("spider/" + info.name);
      EXPECT_TRUE(api::check_feasibility(result).ok());
    }
    for (const api::AlgorithmInfo& info : api::registry().list(api::PlatformKind::kTree)) {
      const api::SolveResult result = api::registry().solve(tree, info.name, 9);
      SCOPED_TRACE("tree/" + info.name);
      EXPECT_TRUE(api::check_feasibility(result).ok());
    }
  }
}

// A sized task runs for its size times w: one task of size 5 on a
// processor with (c, w) = (1, 2) ends at 5·1 + 5·2 = 15, on every platform
// kind the sized baselines serve.
TEST(Registry, SizedBaselineMakespansScaleTheWork) {
  const Workload sized = Workload(1, {5}, {});
  const Chain one = Chain::from_vectors({1}, {2});
  for (const api::Platform& platform :
       {api::Platform(one), api::Platform(Fork{Processor{1, 2}}), api::Platform(Spider{one})}) {
    for (const char* algorithm : {"forward-greedy", "round-robin", "single-node"}) {
      SCOPED_TRACE(api::to_string(api::kind_of(platform)) + "/" + algorithm);
      const api::SolveResult result = api::registry().solve(platform, algorithm, sized);
      EXPECT_EQ(result.makespan, 15);
      EXPECT_TRUE(api::check_feasibility(result).ok()) << api::check_feasibility(result).summary();
    }
  }
}

TEST(Registry, UnknownAlgorithmThrowsWithKnownNames) {
  try {
    (void)api::registry().solve(fig2_chain(), "simulated-annealing", 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error names the platform kind and enumerates the alternatives.
    EXPECT_NE(std::string(e.what()).find("chain"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("optimal"), std::string::npos);
  }
}

// The gate refuses an empty workload before any entry runs, with one
// message for every entry.
TEST(Registry, EveryEntryRejectsAnEmptyWorkload) {
  for (const api::AlgorithmInfo& info : api::registry().list()) {
    SCOPED_TRACE(api::to_string(info.kind) + "/" + info.name);
    try {
      (void)api::registry().solve(platform_of(info.kind), info.name, 0);
      ADD_FAILURE() << "an empty workload was solved";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "solve: need at least one task");
    }
  }
}

/// One task per time unit on processor 0 of a chain, placed by the core
/// construction on that one-processor chain.  Sets only what an entry
/// returns: the registry stamps the rest.
api::SolveResult always_first(const api::Platform& platform, const Workload& workload,
                              const api::SolveOptions& /*options*/) {
  const Chain first{std::get<Chain>(platform).proc(0)};
  ChainSchedule schedule = ChainScheduler::schedule(first, workload.count());
  api::SolveResult result;
  result.tasks = workload.count();
  result.makespan = schedule.makespan();
  result.schedule = std::move(schedule);
  return result;
}

// Extending the library is one `add()` call: the new entry is enumerable
// and dispatchable exactly like the built-ins, in both forms.
TEST(Registry, CustomRegistrationIsOneLine) {
  api::Registry local;
  local.add({api::PlatformKind::kChain, "always-first",
             "send everything to processor 0 (test stub)", /*optimal=*/false,
             /*exponential=*/false, WorkloadFeatures{}},
            always_first);
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local.list(api::PlatformKind::kChain).front().name, "always-first");

  const api::SolveResult result = local.solve(Chain{{2, 5}}, "always-first", 4);
  EXPECT_EQ(result.tasks, 4u);
  EXPECT_EQ(result.algorithm, "always-first");
  EXPECT_EQ(result.kind, api::PlatformKind::kChain);
  EXPECT_EQ(result.workload, Workload::identical(4));
  EXPECT_TRUE(api::check_feasibility(result).ok());
  // No decision form registered: the makespan form is inverted, and the
  // result is stamped like a native one.  One processor with (c, w) =
  // (2, 5) completes task k at 2 + 5k, so 4 tasks fit in 22.
  const api::DecisionResult decided = local.solve_within(Chain{{2, 5}}, "always-first", 22);
  EXPECT_EQ(decided.tasks, 4u);
  EXPECT_EQ(decided.algorithm, "always-first");
  EXPECT_EQ(decided.deadline, 22);
  EXPECT_FALSE(decided.optimal);
  EXPECT_TRUE(api::check_feasibility(decided).ok());

  // Duplicate (kind, name) pairs, empty names and null solvers are rejected.
  EXPECT_THROW(local.add({api::PlatformKind::kChain, "always-first", "dup",
                          /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
                         always_first),
               std::invalid_argument);
  EXPECT_THROW(local.add({api::PlatformKind::kChain, "", "anonymous",
                          /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
                         always_first),
               std::invalid_argument);
  EXPECT_THROW(local.add({api::PlatformKind::kChain, "null", "no solver",
                          /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
                         nullptr),
               std::invalid_argument);
}

// A makespan-only result must not pass feasibility checking silently.
TEST(Registry, UncheckedResultsAreFlagged) {
  api::SolveResult bare;
  bare.tasks = 3;
  bare.makespan = 10;
  EXPECT_FALSE(api::check_feasibility(bare).ok());
}

/// An entry that checks no workload features itself, so only the
/// registry's capability gate stands between it and a pool it cannot
/// handle.  One task per time unit, whatever the platform.
api::SolveResult unchecked_solve(const api::Platform& /*platform*/, const Workload& workload,
                                 const api::SolveOptions& /*options*/) {
  api::SolveResult result;
  result.tasks = workload.count();
  result.makespan = static_cast<Time>(workload.count());
  return result;
}

api::Registry identical_only_registry() {
  api::Registry local;
  local.add({api::PlatformKind::kChain, "unchecked", "identical-only entry (test stub)",
             /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
            unchecked_solve);
  return local;
}

TEST(Registry, MaxTasksAppliesTheCapabilityGate) {
  const api::Registry local = identical_only_registry();
  api::SolveOptions options;
  options.workload = std::make_shared<const Workload>(Workload::released({0, 3, 5}));
  EXPECT_THROW((void)local.max_tasks(fig2_chain(), "unchecked", 10, options),
               std::invalid_argument);
  options.workload = std::make_shared<const Workload>(Workload::identical(3));
  EXPECT_EQ(local.max_tasks(fig2_chain(), "unchecked", 10, options), 3u);
}

/// The value of counter `name` in `metrics`; 0 when it was never made.
std::int64_t counter_value(const obs::MetricsRegistry& metrics, const std::string& name) {
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

TEST(Registry, MaxTasksCountsADecideDispatch) {
  const api::Registry local = identical_only_registry();
  obs::MetricsRegistry metrics;
  api::SolveOptions options;
  options.metrics = &metrics;
  EXPECT_EQ(local.max_tasks(fig2_chain(), "unchecked", 4, options), 4u);
  EXPECT_EQ(counter_value(metrics, "api.decide.unchecked"), 1);
}

// The gate's order: the capability check throws before the dispatch is
// counted; an unknown name, the cap and an empty workload throw after.
TEST(Registry, GateCountsADispatchPastTheCapabilityCheck) {
  obs::MetricsRegistry metrics;
  api::SolveOptions options;
  options.metrics = &metrics;
  options.cap = 4;
  const Workload sized = Workload(2, {2, 3}, {});
  EXPECT_THROW((void)api::registry().solve(fig2_chain(), "optimal", sized, options),
               std::invalid_argument);
  EXPECT_EQ(counter_value(metrics, "api.solve.optimal"), 0);
  EXPECT_THROW((void)api::registry().solve(fig2_chain(), "optimal", 0, options),
               std::invalid_argument);
  EXPECT_THROW((void)api::registry().solve(fig2_chain(), "optimal", 5, options),
               std::invalid_argument);
  EXPECT_EQ(counter_value(metrics, "api.solve.optimal"), 2);
  EXPECT_THROW((void)api::registry().solve(fig2_chain(), "no-such-entry", 4, options),
               std::invalid_argument);
  EXPECT_EQ(counter_value(metrics, "api.solve.no-such-entry"), 1);
  options.workload = std::make_shared<const Workload>(sized);
  EXPECT_THROW((void)api::registry().solve_within(fig2_chain(), "optimal", 20, options),
               std::invalid_argument);
  EXPECT_EQ(counter_value(metrics, "api.decide.optimal"), 0);
}

// `core.chain.probes` folds the bisection probes of the release-dated chain
// makespan search; an identical workload runs no search and adds 0.
TEST(Registry, ChainOptimalSolvesCountTheirSearchProbes) {
  obs::MetricsRegistry metrics;
  api::SolveScratch scratch;
  api::SolveOptions options;
  options.metrics = &metrics;
  options.scratch = &scratch;
  (void)api::registry().solve(fig2_chain(), "optimal", 8, options);
  EXPECT_EQ(counter_value(metrics, "core.chain.probes"), 0);
  (void)api::registry().solve(fig2_chain(), "optimal", Workload::released({0, 0, 4, 9, 9, 20}),
                              options);
  EXPECT_GT(scratch.chain.probes, 0u);
  EXPECT_EQ(counter_value(metrics, "core.chain.probes"),
            static_cast<std::int64_t>(scratch.chain.probes));
}

// Makespan solves size their instances by the task count, so a count above
// SolveOptions::cap is rejected up front, naming the limit — 4e12 tasks on
// a fork would otherwise build a node instance of p·n jobs first.
TEST(Registry, MakespanSolvesRejectCountsAboveTheCap) {
  const std::size_t huge = 4'000'000'000'000;
  for (api::PlatformKind kind : api::all_platform_kinds()) {
    const api::Platform platform = platform_of(kind);
    for (const std::string& name : api::registry().names(kind)) {
      SCOPED_TRACE(api::to_string(kind) + "/" + name);
      EXPECT_THROW((void)api::registry().solve(platform, name, huge), std::invalid_argument);
    }
  }
  api::SolveOptions small;
  small.cap = 4;
  EXPECT_EQ(api::registry().solve(small_fork(), "optimal", 4, small).tasks, 4u);
  try {
    (void)api::registry().solve(small_fork(), "optimal", 5, small);
    FAIL() << "a count above the cap was solved";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("5 tasks exceed the task limit SolveOptions::cap = 4"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace mst
