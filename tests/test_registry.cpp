// Tests of the algorithm registry (mst/api/registry.hpp): enumeration,
// lookup, dispatch, custom registration, and — the load-bearing one —
// that every registered (platform kind, algorithm) pair produces a
// feasible schedule of the requested size on a small instance.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
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
    EXPECT_NE(api::registry().find(kind, "optimal"), nullptr);
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
            ForkScheduler::makespan(small_fork(), n));
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
  const Workload sized = Workload::of_sizes({5});
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

TEST(Registry, WrongPlatformAlternativeThrows) {
  // A chain algorithm invoked with a spider platform must refuse, not crash.
  const api::Scheduler* scheduler =
      api::registry().find(api::PlatformKind::kChain, "optimal");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_THROW((void)scheduler->solve(api::Platform(small_spider()), 4),
               std::invalid_argument);
  EXPECT_THROW((void)api::registry().solve(fig2_chain(), "optimal", 0),
               std::invalid_argument);
}

/// Runs `call`, which must throw `std::invalid_argument` with `message`.
template <typename Call>
void expect_rejected(const Call& call, const std::string& message) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected \"" << message << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(Registry, EveryEntryRejectsPlatformsOfAnotherKind) {
  // Every built-in refuses a platform of any other kind with one message,
  // in the makespan form and in the decision form — an empty window
  // included, which the makespan-inversion adapter answers without a probe
  // solve — and never solves it as its substrate.
  for (const api::AlgorithmInfo& info : api::registry().list()) {
    SCOPED_TRACE(api::to_string(info.kind) + "/" + info.name);
    const api::Scheduler* scheduler = api::registry().find(info.kind, info.name);
    ASSERT_NE(scheduler, nullptr);
    const api::SolveResult own = scheduler->solve(platform_of(info.kind), 4);
    EXPECT_EQ(own.kind, info.kind);
    EXPECT_EQ(own.tasks, 4u);
    for (const api::PlatformKind other : api::all_platform_kinds()) {
      if (other == info.kind) continue;
      const api::Platform platform = platform_of(other);
      const std::string message = info.name + ": expected a " + api::to_string(info.kind) +
                                  " platform, got " + api::to_string(other);
      expect_rejected([&] { (void)scheduler->solve(platform, 4); }, message);
      for (const Time deadline : {Time{0}, Time{50}}) {
        expect_rejected([&] { (void)scheduler->solve_within(platform, deadline, {}); }, message);
      }
    }
  }
}

// Extending the library is one `add()` call: the new entry is enumerable
// and dispatchable exactly like the built-ins.
TEST(Registry, CustomRegistrationIsOneLine) {
  api::Registry local;
  local.add({api::PlatformKind::kChain, "always-first",
             "send everything to processor 0 (test stub)", /*optimal=*/false,
             /*exponential=*/false, WorkloadFeatures{}},
            [](const api::Platform& platform, std::size_t n) {
              const Chain& chain = std::get<Chain>(platform);
              api::SolveResult result;
              result.algorithm = "always-first";
              result.kind = api::PlatformKind::kChain;
              result.tasks = n;
              ChainSchedule schedule =
                  ChainScheduler::schedule(Chain{chain.proc(0)}, n);
              result.makespan = schedule.makespan();
              result.schedule = std::move(schedule);
              return result;
            });
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local.list(api::PlatformKind::kChain).front().name, "always-first");

  const api::SolveResult result = local.solve(Chain{{2, 5}}, "always-first", 4);
  EXPECT_EQ(result.tasks, 4u);
  EXPECT_TRUE(api::check_feasibility(result).ok());

  // Duplicate (kind, name) pairs and empty names are rejected.
  EXPECT_THROW(local.add({api::PlatformKind::kChain, "always-first", "dup",
                          /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
                         [](const api::Platform&, std::size_t) { return api::SolveResult{}; }),
               std::invalid_argument);
  EXPECT_THROW(local.add({api::PlatformKind::kChain, "", "anonymous",
                          /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
                         [](const api::Platform&, std::size_t) { return api::SolveResult{}; }),
               std::invalid_argument);
}

// A makespan-only result must not pass feasibility checking silently.
TEST(Registry, UncheckedResultsAreFlagged) {
  api::SolveResult bare;
  bare.tasks = 3;
  bare.makespan = 10;
  EXPECT_FALSE(api::check_feasibility(bare).ok());
}

/// A scheduler registered by pointer: it checks no workload features
/// itself, so only the registry's capability gate stands between it and a
/// pool it cannot handle.  One task per time unit, whatever the platform.
class UncheckedScheduler final : public api::Scheduler {
 public:
  [[nodiscard]] api::SolveResult solve(const api::Platform& platform, const Workload& workload,
                                       const api::SolveOptions& /*options*/) const override {
    api::SolveResult result;
    result.algorithm = "unchecked";
    result.kind = api::kind_of(platform);
    result.tasks = workload.count();
    result.makespan = static_cast<Time>(workload.count());
    return result;
  }
};

api::Registry identical_only_registry() {
  api::Registry local;
  local.add({api::PlatformKind::kChain, "unchecked", "identical-only pointer entry (test stub)",
             /*optimal=*/false, /*exponential=*/false, WorkloadFeatures{}},
            std::make_shared<const UncheckedScheduler>());
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

TEST(Registry, MaxTasksCountsADecideDispatch) {
  const api::Registry local = identical_only_registry();
  obs::MetricsRegistry metrics;
  api::SolveOptions options;
  options.metrics = &metrics;
  EXPECT_EQ(local.max_tasks(fig2_chain(), "unchecked", 4, options), 4u);
  std::int64_t decides = 0;
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.name == "api.decide.unchecked") decides = sample.value;
  }
  EXPECT_EQ(decides, 1);
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
