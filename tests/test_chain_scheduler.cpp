// Unit tests of the paper's §3 chain algorithm on known instances,
// including the exact reproduction of Fig 2.

#include <gtest/gtest.h>

#include <stdexcept>

#include "mst/baselines/brute_force.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(ChainScheduler, ReproducesFig2) {
  const ChainSchedule s = ChainScheduler::schedule(fig2_chain(), 5);
  EXPECT_EQ(s.makespan(), 14);
  ASSERT_EQ(s.num_tasks(), 5u);
  // First-link emissions {0,2,4,6,9}; the third task goes to processor 2
  // (index 1 here) — the "node with processing time 8" of Fig 7.
  const std::vector<Time> expected_emissions = {0, 2, 4, 6, 9};
  const std::vector<std::size_t> expected_procs = {0, 0, 1, 0, 0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.tasks[i].emissions.front(), expected_emissions[i]) << "task " << i;
    EXPECT_EQ(s.tasks[i].proc, expected_procs[i]) << "task " << i;
  }
  // The delayed task of Fig 2: second task arrives at 4 and is buffered
  // until the first finishes at 5.
  EXPECT_EQ(s.tasks[1].arrival(s.chain), 4);
  EXPECT_EQ(s.tasks[1].start, 5);
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
}

TEST(ChainScheduler, SingleProcessorMatchesTInfinity) {
  // With one processor the optimum is exactly T∞ (Fig 3 preamble).
  for (Time c : {1, 2, 5}) {
    for (Time w : {1, 3, 7}) {
      const Chain chain = Chain::from_vectors({c}, {w});
      for (std::size_t n : {1u, 2u, 5u, 9u}) {
        EXPECT_EQ(ChainScheduler::makespan(chain, n), chain.t_infinity(n))
            << "c=" << c << " w=" << w << " n=" << n;
      }
    }
  }
}

TEST(ChainScheduler, SingleTaskPicksBestProcessor) {
  // For n=1 the optimum is min over q of (path latency + work).
  const Chain chain = Chain::from_vectors({3, 1, 1}, {10, 6, 2});
  // q0: 3+10=13, q1: 4+6=10, q2: 5+2=7.
  EXPECT_EQ(ChainScheduler::makespan(chain, 1), 7);
  const ChainSchedule s = ChainScheduler::schedule(chain, 1);
  EXPECT_EQ(s.tasks[0].proc, 2u);
  EXPECT_EQ(s.tasks[0].emissions.front(), 0);
}

TEST(ChainScheduler, ScheduleStartsAtZero) {
  const ChainSchedule s = ChainScheduler::schedule(fig2_chain(), 5);
  EXPECT_EQ(s.tasks.front().emissions.front(), 0);
}

TEST(ChainScheduler, EmissionsAreSortedAndLinkExclusive) {
  const Chain chain = Chain::from_vectors({2, 1, 4}, {3, 8, 2});
  const ChainSchedule s = ChainScheduler::schedule(chain, 7);
  for (std::size_t i = 1; i < s.tasks.size(); ++i) {
    EXPECT_GE(s.tasks[i].emissions.front(),
              s.tasks[i - 1].emissions.front() + chain.comm(0));
  }
}

TEST(ChainScheduler, RejectsZeroTasks) {
  EXPECT_THROW(ChainScheduler::schedule(fig2_chain(), 0), std::invalid_argument);
}

TEST(ChainScheduler, UselessTailProcessorIsIgnored) {
  // A grotesquely slow far processor must never harm the optimum.
  const Chain fast = Chain::from_vectors({2}, {3});
  const Chain with_tail = Chain::from_vectors({2, 1000}, {3, 1000});
  for (std::size_t n : {1u, 3u, 6u}) {
    EXPECT_EQ(ChainScheduler::makespan(with_tail, n), ChainScheduler::makespan(fast, n));
  }
}

TEST(ChainScheduler, FastRelayProcessorHelps) {
  // A slow head in front of a fast tail: the algorithm must route past it.
  const Chain chain = Chain::from_vectors({1, 1}, {100, 1});
  const ChainSchedule s = ChainScheduler::schedule(chain, 5);
  EXPECT_EQ(s.tasks_per_proc()[1], 5u);  // everything lands on the fast node
  EXPECT_EQ(s.makespan(), brute_force_makespan(chain, 5));
}

TEST(ChainScheduler, ZeroLatencyLinksAreHandled) {
  const Chain chain = Chain::from_vectors({0, 0}, {4, 5});
  for (std::size_t n = 1; n <= 6; ++n) {
    const ChainSchedule s = ChainScheduler::schedule(chain, n);
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
    EXPECT_EQ(s.makespan(), brute_force_makespan(chain, n)) << "n=" << n;
  }
}

TEST(ChainScheduler, DecisionFormStopsAtWindow) {
  const Chain chain = fig2_chain();
  // Fig 2 fits 5 tasks in 14 units but only 4 in 13.
  EXPECT_EQ(ChainScheduler::max_tasks(chain, 14, 100), 5u);
  EXPECT_EQ(ChainScheduler::max_tasks(chain, 13, 100), 4u);
  EXPECT_EQ(ChainScheduler::max_tasks(chain, 0, 100), 0u);
  // A window too small for even one task.
  EXPECT_EQ(ChainScheduler::max_tasks(chain, 4, 100), 0u);
  EXPECT_EQ(ChainScheduler::max_tasks(chain, 5, 100), 1u);
}

TEST(ChainScheduler, DecisionFormHonorsCap) {
  const Chain chain = fig2_chain();
  const ChainSchedule s = ChainScheduler::schedule_within(chain, 1000, 3);
  EXPECT_EQ(s.num_tasks(), 3u);
}

TEST(ChainScheduler, DecisionFormKeepsAbsoluteTimes) {
  // All tasks end by t_lim and no time is shifted.
  const Chain chain = fig2_chain();
  const ChainSchedule s = ChainScheduler::schedule_within(chain, 20, 100);
  for (const ChainTask& t : s.tasks) {
    EXPECT_GE(t.emissions.front(), 0);
    EXPECT_LE(t.end(chain), 20);
  }
  // The last task ends exactly at the horizon (backward construction).
  EXPECT_EQ(s.makespan(), 20);
}

TEST(ChainScheduler, DecisionFormRejectsNegativeWindow) {
  EXPECT_THROW(ChainScheduler::schedule_within(fig2_chain(), -1, 5), std::invalid_argument);
}

TEST(ChainScheduler, BuildBackwardExposesRawHorizon) {
  // Raw construction at horizon H without shift: last task ends at H.
  const Chain chain = fig2_chain();
  const ChainSchedule s = ChainScheduler::build_backward(chain, 100, 4, true);
  EXPECT_EQ(s.makespan(), 100);
  EXPECT_EQ(s.num_tasks(), 4u);
}

TEST(ChainScheduler, MakespanEqualsScheduleMakespan) {
  const Chain chain = Chain::from_vectors({1, 2, 3}, {4, 5, 6});
  for (std::size_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(ChainScheduler::makespan(chain, n), ChainScheduler::schedule(chain, n).makespan());
  }
}

TEST(ChainScheduler, LongHomogeneousChainSaturates) {
  // Homogeneous chain, communication-bound: rate is limited by the first
  // link, so makespan grows by c per task once saturated.
  const Chain chain = Chain::from_vectors({2, 2, 2, 2}, {4, 4, 4, 4});
  const Time m16 = ChainScheduler::makespan(chain, 16);
  const Time m17 = ChainScheduler::makespan(chain, 17);
  EXPECT_EQ(m17 - m16, 2);
}

}  // namespace
}  // namespace mst
