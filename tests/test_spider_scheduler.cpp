// Tests of the §7 spider algorithm on known instances, including the Fig 7
// transformation artifact.

#include <gtest/gtest.h>

#include "mst/api/registry.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(SpiderScheduler, TransformReproducesFig7) {
  // One leg (the Fig 2 chain) at T_lim = 14: virtual nodes with link 2 and
  // processing times {12, 10, 8, 6, 3}.
  const Spider spider{fig2_chain()};
  const SpiderTransformation tf = SpiderScheduler::transform(spider, 14, 100);
  ASSERT_EQ(tf.leg_schedules.size(), 1u);
  EXPECT_EQ(tf.leg_schedules[0].num_tasks(), 5u);
  ASSERT_EQ(tf.nodes.size(), 5u);
  const std::vector<Time> expected = {12, 10, 8, 6, 3};
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(tf.nodes[j].exec, expected[j]);
    EXPECT_EQ(tf.nodes[j].comm, 2);
  }
}

TEST(SpiderScheduler, SingleLegEqualsChainScheduler) {
  const Spider spider{fig2_chain()};
  for (std::size_t n = 1; n <= 7; ++n) {
    EXPECT_EQ(SpiderScheduler::makespan(spider, n),
              ChainScheduler::makespan(fig2_chain(), n))
        << "n=" << n;
  }
}

TEST(SpiderScheduler, ForkShapedSpiderEqualsForkScheduler) {
  const Fork fork({Processor{2, 5}, Processor{4, 1}, Processor{1, 9}});
  const Spider spider = Spider::from_fork(fork);
  for (std::size_t n = 1; n <= 7; ++n) {
    EXPECT_EQ(SpiderScheduler::makespan(spider, n),
              api::registry().solve(fork, "optimal", n).makespan)
        << "n=" << n;
  }
}

TEST(SpiderScheduler, KnownTwoLegInstance) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  for (std::size_t n = 1; n <= 6; ++n) {
    const SpiderSchedule s = SpiderScheduler::schedule(spider, n);
    ASSERT_EQ(s.num_tasks(), n);
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
    EXPECT_EQ(s.makespan(), brute_force_makespan(spider, n)) << "n=" << n;
  }
}

TEST(SpiderScheduler, DecisionFormWithinWindow) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  for (Time t = 0; t <= 20; t += 2) {
    const SpiderSchedule s = SpiderScheduler::schedule_within(spider, t, 50);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << "T=" << t << "\n" << report.summary();
    for (const SpiderTask& task : s.tasks) {
      EXPECT_LE(task.end(spider), t);
      EXPECT_GE(task.emissions.front(), 0);
    }
  }
}

TEST(SpiderScheduler, DecisionFormMonotoneInWindow) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2}),
                      Chain::from_vectors({1, 1}, {2, 2})};
  std::size_t prev = 0;
  for (Time t = 0; t <= 30; ++t) {
    const std::size_t k = SpiderScheduler::max_tasks(spider, t, 100);
    EXPECT_GE(k, prev) << "T=" << t;
    prev = k;
  }
}

TEST(SpiderScheduler, CapIsHonored) {
  const Spider spider{Chain::from_vectors({1}, {1}), Chain::from_vectors({1}, {1})};
  EXPECT_EQ(SpiderScheduler::schedule_within(spider, 1000, 7).num_tasks(), 7u);
}

TEST(SpiderScheduler, MinimalityOfTheWindow) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  for (std::size_t n = 1; n <= 6; ++n) {
    const Time m = SpiderScheduler::makespan(spider, n);
    EXPECT_LT(SpiderScheduler::max_tasks(spider, m - 1, n), n) << "n=" << n;
    EXPECT_GE(SpiderScheduler::max_tasks(spider, m, n), n) << "n=" << n;
  }
}

TEST(SpiderScheduler, RejectsInvalidArguments) {
  const Spider spider{fig2_chain()};
  EXPECT_THROW(SpiderScheduler::schedule(spider, 0), std::invalid_argument);
  EXPECT_THROW(SpiderScheduler::schedule_within(spider, -1, 5), std::invalid_argument);
}

TEST(SpiderScheduler, ScheduleIsNormalizedToZero) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 5);
  Time earliest = kTimeInfinity;
  for (const SpiderTask& t : s.tasks) earliest = std::min(earliest, t.emissions.front());
  EXPECT_EQ(earliest, 0);
}

TEST(SpiderScheduler, StarvedLegGetsNothing) {
  // A leg whose single processor is absurdly slow should receive no tasks
  // when the other leg can absorb everything faster.
  const Spider spider{Chain::from_vectors({1}, {1}), Chain::from_vectors({1}, {1000})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 6);
  const auto counts = s.tasks_per_leg();
  EXPECT_EQ(counts[0], 6u);
  EXPECT_EQ(counts[1], 0u);
}

}  // namespace
}  // namespace mst
