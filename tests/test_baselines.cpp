// Tests of the baseline schedulers: ASAP executor, brute force sanity,
// forward greedy, round robin and single node.

#include <gtest/gtest.h>

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

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(Asap, ChainTimingByHand) {
  // Two tasks to proc 1, one to proc 0 on the Fig 2 chain.
  const ChainSchedule s = asap_chain_schedule(fig2_chain(), {1, 1, 0});
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
    const Time predicted = state.peek_completion(dest + 1);
    EXPECT_EQ(state.commit(dest + 1), predicted);
  }
}

TEST(Asap, SpiderSerializesMasterPort) {
  const Spider spider{Chain::from_vectors({3}, {1}), Chain::from_vectors({2}, {1})};
  const SpiderSchedule s = asap_spider_schedule(spider, {{0, 0}, {1, 0}});
  // First emission occupies the port [0,3); the second leg waits.
  EXPECT_EQ(s.tasks[0].emissions[0], 0);
  EXPECT_EQ(s.tasks[1].emissions[0], 3);
  EXPECT_TRUE(check_feasibility(s).ok());
}

TEST(Asap, RejectsBadDestinations) {
  TreeAsapState state(fig2_chain());
  EXPECT_THROW((void)state.peek_completion(5 + 1), std::invalid_argument);
  EXPECT_THROW(asap_spider_schedule(Spider{fig2_chain()}, {{3, 0}}), std::invalid_argument);
  // Leg 0 processor 2 would number as leg 1's head: still rejected.
  const Spider two_legs{fig2_chain(), Chain::from_vectors({4}, {2})};
  EXPECT_THROW(asap_spider_schedule(two_legs, {{0, fig2_chain().size()}}), std::invalid_argument);
}

TEST(BruteForce, TrivialInstances) {
  const Chain one = Chain::from_vectors({2}, {3});
  EXPECT_EQ(brute_force_chain_makespan(one, 1), 5);
  EXPECT_EQ(brute_force_chain_makespan(one, 3), one.t_infinity(3));
  EXPECT_THROW(brute_force_chain_makespan(one, 0), std::invalid_argument);
}

TEST(BruteForce, ScheduleMatchesReportedMakespan) {
  const Chain chain = fig2_chain();
  for (std::size_t n = 1; n <= 5; ++n) {
    const ChainSchedule s = brute_force_chain_schedule(chain, n);
    EXPECT_EQ(s.makespan(), brute_force_chain_makespan(chain, n));
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  }
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  for (std::size_t n = 1; n <= 4; ++n) {
    const SpiderSchedule s = brute_force_spider_schedule(spider, n);
    EXPECT_EQ(s.makespan(), brute_force_spider_makespan(spider, n));
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  }
}

TEST(BruteForce, MaxTasksStaircase) {
  const Chain chain = fig2_chain();
  EXPECT_EQ(brute_force_chain_max_tasks(chain, 14, 10), 5u);
  EXPECT_EQ(brute_force_chain_max_tasks(chain, 13, 10), 4u);
  EXPECT_EQ(brute_force_chain_max_tasks(chain, 4, 10), 0u);
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

    const ChainSchedule greedy = forward_greedy_chain(chain, n);
    const ChainSchedule rr = round_robin_chain(chain, n);
    const ChainSchedule single = single_node_chain(chain, n);
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

    const SpiderSchedule greedy = forward_greedy_spider(spider, n);
    const SpiderSchedule rr = round_robin_spider(spider, n);
    const SpiderSchedule single = single_node_spider(spider, n);
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
    EXPECT_LE(forward_greedy_chain_makespan(chain, n), round_robin_chain_makespan(chain, n) * 2)
        << chain.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineProperty, ::testing::Values(3u, 13u, 23u));

}  // namespace
}  // namespace mst
