// Tests of the baseline schedulers: ASAP executor, brute force sanity,
// forward greedy, round robin and single node, and the relations between
// their chain, spider and fork forms.

#include <gtest/gtest.h>

#include "mst/api/registry.hpp"
#include "mst/baselines/asap.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/baselines/forward_greedy.hpp"
#include "mst/baselines/round_robin.hpp"
#include "mst/baselines/single_node.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"
#include "support/asap_peek.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(Asap, ChainTimingByHand) {
  // Two tasks to proc 1, one to proc 0 on the Fig 2 chain.
  const ChainSchedule s = asap_chain_schedule(fig2_chain(), {1, 1, 0}, Workload::identical(3));
  ASSERT_EQ(s.num_tasks(), 3u);
  // Task 0: emit 0 on link0, 2 on link1, arrive 5, run [5,10).
  EXPECT_EQ(s.tasks[0].emissions, (CommVector{0, 2}));
  EXPECT_EQ(s.tasks[0].start, 5);
  // Task 1: link0 [2,4), link1 [5,8) (after task0's), arrive 8, wait for
  // proc1 until 10.
  EXPECT_EQ(s.tasks[1].emissions, (CommVector{2, 5}));
  EXPECT_EQ(s.tasks[1].start, 10);
  // Task 2: link0 [4,6), arrive 6, run [6,9).
  EXPECT_EQ(s.tasks[2].emissions, (CommVector{4}));
  EXPECT_EQ(s.tasks[2].start, 6);
  EXPECT_EQ(s.makespan(), 15);
  EXPECT_TRUE(check_feasibility(s).ok());
}

TEST(Asap, PeekMatchesCommit) {
  TreeAsapState state(fig2_chain());
  for (std::size_t dest : {1u, 0u, 1u, 0u}) {
    const Time predicted = oracle::peek_completion(state, dest + 1);
    EXPECT_EQ(state.commit(dest + 1), predicted);
  }
}

TEST(Asap, SpiderSerializesMasterPort) {
  const Spider spider{Chain::from_vectors({3}, {1}), Chain::from_vectors({2}, {1})};
  const SpiderSchedule s = asap_spider_schedule(spider, {{0, 0}, {1, 0}}, Workload::identical(2));
  // First emission occupies the port [0,3); the second leg waits.
  EXPECT_EQ(s.tasks[0].emissions[0], 0);
  EXPECT_EQ(s.tasks[1].emissions[0], 3);
  EXPECT_TRUE(check_feasibility(s).ok());
}

TEST(Asap, RejectsBadDestinations) {
  TreeAsapState state(fig2_chain());
  EXPECT_THROW((void)oracle::peek_completion(state, 5 + 1), std::invalid_argument);
  EXPECT_THROW(asap_spider_schedule(Spider{fig2_chain()}, {{3, 0}}, Workload::identical(1)),
               std::invalid_argument);
  // Leg 0 processor 2 would number as leg 1's head: still rejected.
  const Spider two_legs{fig2_chain(), Chain::from_vectors({4}, {2})};
  EXPECT_THROW(
      asap_spider_schedule(two_legs, {{0, fig2_chain().size()}}, Workload::identical(1)),
      std::invalid_argument);
}

TEST(BruteForce, TrivialInstances) {
  const Chain one = Chain::from_vectors({2}, {3});
  EXPECT_EQ(brute_force_makespan(one, 1), 5);
  EXPECT_EQ(brute_force_makespan(one, 3), one.t_infinity(3));
  EXPECT_THROW(brute_force_makespan(one, 0), std::invalid_argument);
}

TEST(BruteForce, ScheduleMatchesReportedMakespan) {
  const Chain chain = fig2_chain();
  for (std::size_t n = 1; n <= 5; ++n) {
    const ChainSchedule s = brute_force_schedule(chain, n);
    EXPECT_EQ(s.makespan(), brute_force_makespan(chain, n));
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  }
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  for (std::size_t n = 1; n <= 4; ++n) {
    const SpiderSchedule s = brute_force_schedule(spider, n);
    EXPECT_EQ(s.makespan(), brute_force_makespan(spider, n));
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  }
}

TEST(BruteForce, MaxTasksStaircase) {
  const Chain chain = fig2_chain();
  EXPECT_EQ(brute_force_max_tasks(chain, 14, 10), 5u);
  EXPECT_EQ(brute_force_max_tasks(chain, 13, 10), 4u);
  EXPECT_EQ(brute_force_max_tasks(chain, 4, 10), 0u);
}

class BaselineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BaselineProperty, HeuristicsAreFeasibleAndBoundedByOptimal) {
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Chain chain = random_chain(inst, p, params);
    const Time optimal = ChainScheduler::makespan(chain, n);

    const Workload w = Workload::identical(n);
    const ChainSchedule greedy = forward_greedy(chain, w);
    const ChainSchedule rr = round_robin(chain, w);
    const ChainSchedule single = single_node(chain, w);
    for (const ChainSchedule* s : {&greedy, &rr, &single}) {
      ASSERT_EQ(s->num_tasks(), n);
      const FeasibilityReport report = check_feasibility(*s);
      ASSERT_TRUE(report.ok()) << chain.describe() << "\n" << report.summary();
      EXPECT_GE(s->makespan(), optimal) << chain.describe() << " n=" << n;
    }
    // Single node is itself bounded by the first-processor T∞.
    EXPECT_LE(single.makespan(), chain.t_infinity(n));
  }
}

TEST_P(BaselineProperty, SpiderHeuristicsFeasibleAndBounded) {
  Rng rng(GetParam());
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 9));
    const Spider spider = random_spider(inst, legs, 3, params);
    const Time optimal = SpiderScheduler::makespan(spider, n);

    const Workload w = Workload::identical(n);
    const SpiderSchedule greedy = forward_greedy(spider, w);
    const SpiderSchedule rr = round_robin(spider, w);
    const SpiderSchedule single = single_node(spider, w);
    for (const SpiderSchedule* s : {&greedy, &rr, &single}) {
      ASSERT_EQ(s->num_tasks(), n);
      const FeasibilityReport report = check_feasibility(*s);
      ASSERT_TRUE(report.ok()) << spider.describe() << "\n" << report.summary();
      EXPECT_GE(s->makespan(), optimal) << spider.describe() << " n=" << n;
    }
  }
}

TEST_P(BaselineProperty, GreedyNeverWorseThanRoundRobinOnChains) {
  // Not a theorem — but with ECT's exact estimates on chains the greedy
  // dominates the blind cycle on every instance this suite generates; a
  // regression here means the estimator broke.
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kAntiCorrelated};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(2, 5)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Workload w = Workload::identical(n);
    EXPECT_LE(forward_greedy(chain, w).makespan(), round_robin(chain, w).makespan() * 2)
        << chain.describe();
  }
}

/// A one-leg spider's schedule is its chain's, task by task.
void expect_same_schedule(const ChainSchedule& chain, const SpiderSchedule& spider,
                          const Workload& w) {
  ASSERT_EQ(spider.num_tasks(), chain.num_tasks());
  for (std::size_t i = 0; i < chain.num_tasks(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(spider.tasks[i].leg, 0u);
    EXPECT_EQ(spider.tasks[i].proc, chain.tasks[i].proc);
    EXPECT_EQ(spider.tasks[i].emissions, chain.tasks[i].emissions);
    EXPECT_EQ(spider.tasks[i].start, chain.tasks[i].start);
  }
  EXPECT_EQ(spider.makespan(w), chain.makespan(w));
}

/// The registry's `optimal` on two forms of one platform: equal makespans
/// for `n` identical tasks, and equal count-only `solve_within` counts at
/// deadlines below, at and above that makespan.
void expect_same_optimal(const api::Platform& a, const api::Platform& b, std::size_t n) {
  const api::Registry& registry = api::registry();
  const Time makespan = registry.solve(a, "optimal", n).makespan;
  EXPECT_EQ(makespan, registry.solve(b, "optimal", n).makespan) << "n=" << n;
  api::SolveOptions count_only;
  count_only.materialize = false;
  for (const Time deadline : {makespan / 2, makespan, 2 * makespan + 3}) {
    EXPECT_EQ(registry.solve_within(a, "optimal", deadline, count_only).tasks,
              registry.solve_within(b, "optimal", deadline, count_only).tasks)
        << "deadline " << deadline;
  }
}

TEST_P(BaselineProperty, OneLegSpiderEqualsItsChain) {
  // A chain is the spider with one leg: every shape-generic baseline gives
  // both the same emissions, starts and makespan, on identical, sized and
  // release-dated workloads (brute force: identical only).
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 7));
    const Chain chain = random_chain(inst, p, params);
    const Spider spider{chain};
    SCOPED_TRACE(chain.describe() + " n=" + std::to_string(n));
    std::vector<Time> sizes(n);
    std::vector<Time> release(n);
    for (std::size_t i = 0; i < n; ++i) {
      sizes[i] = rng.uniform(1, 4);
      release[i] = rng.uniform(0, 12);
    }
    for (const Workload& w : {Workload::identical(n), Workload(sizes.size(), sizes, {}),
                              Workload::released(release)}) {
      expect_same_schedule(forward_greedy(chain, w), forward_greedy(spider, w), w);
      expect_same_schedule(round_robin(chain, w), round_robin(spider, w), w);
      expect_same_schedule(single_node(chain, w), single_node(spider, w), w);
    }
    expect_same_schedule(brute_force_schedule(chain, n), brute_force_schedule(spider, n),
                         Workload::identical(n));
    // The exact solvers agree too, on identical workloads: the same makespan
    // and the same count-only decisions.
    expect_same_optimal(chain, spider, n);
  }
}

TEST_P(BaselineProperty, ForkEntriesEqualTheirUnitLegSpider) {
  // A fork is the spider whose legs all have length 1: each shape-generic
  // registry entry answers both alike.
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 4; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 6));
    const Fork fork = random_fork(inst, p, params);
    const api::Platform as_fork = fork;
    const api::Platform as_spider = Spider::from_fork(fork);
    for (const char* name :
         {"optimal", "forward-greedy", "round-robin", "single-node", "brute-force"}) {
      EXPECT_EQ(api::registry().solve(as_fork, name, n).makespan,
                api::registry().solve(as_spider, name, n).makespan)
          << name << " " << fork.describe() << " n=" << n;
    }
    expect_same_optimal(as_fork, as_spider, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty, ::testing::Values(3u, 13u, 23u));

}  // namespace
}  // namespace mst
