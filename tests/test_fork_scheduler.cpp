// Tests of the §6 fork (star) scheduler: decision form, makespan form, and
// the paper's ascending-c greedy cross-check.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "mst/baselines/brute_force.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/virtual_nodes.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

/// The §6 greedy node by node, as the paper states it: slaves in ascending
/// `(c, w)` order, each adding its next Fig 6 node while the selection plus
/// that node stays EDD-feasible.  Returns the selected nodes per slave.
std::vector<std::size_t> node_by_node_greedy(const Fork& fork, Time t_lim, std::size_t cap) {
  std::vector<std::size_t> order(fork.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(fork.slave(a).comm, fork.slave(a).work) <
           std::tie(fork.slave(b).comm, fork.slave(b).work);
  });
  std::vector<DeadlineJob> selected;
  std::vector<std::size_t> per_slave(fork.size(), 0);
  for (const std::size_t i : order) {
    for (const VirtualNode& node : expand_fork_slave(fork.slave(i), i, t_lim, cap)) {
      if (selected.size() >= cap) return per_slave;
      std::vector<DeadlineJob> trial = selected;
      trial.push_back({node.comm, node.deadline(t_lim), i});
      if (!edd_feasible(trial)) break;
      selected = std::move(trial);
      ++per_slave[i];
    }
  }
  return per_slave;
}

TEST(ForkScheduler, SingleSlaveMatchesPipelineFormula) {
  const Fork fork({Processor{2, 5}});
  // c + (n-1)*max(c,w) + w
  EXPECT_EQ(ForkScheduler::makespan(fork, 1), 7);
  EXPECT_EQ(ForkScheduler::makespan(fork, 3), 2 + 2 * 5 + 5);
  const Fork link_bound({Processor{5, 2}});
  EXPECT_EQ(ForkScheduler::makespan(link_bound, 3), 5 + 2 * 5 + 2);
}

TEST(ForkScheduler, TwoIdenticalSlavesHalveTheWork) {
  // Two (c=1, w=4) slaves, 4 tasks: interleave emissions, each slave runs 2.
  const Fork fork({Processor{1, 4}, Processor{1, 4}});
  EXPECT_EQ(ForkScheduler::makespan(fork, 4), brute_force_makespan(Spider::from_fork(fork), 4));
}

TEST(ForkScheduler, DecisionFormCountsAndFeasibility) {
  const Fork fork({Processor{2, 5}, Processor{4, 1}});
  for (Time t = 0; t <= 20; ++t) {
    const SpiderSchedule s = ForkScheduler::schedule_within(fork, t, 50);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << "T=" << t << "\n" << report.summary();
    for (const SpiderTask& task : s.tasks) EXPECT_LE(task.end(s.spider), t);
  }
}

TEST(ForkScheduler, DecisionFormIsMonotone) {
  const Fork fork({Processor{2, 5}, Processor{4, 1}, Processor{1, 9}});
  std::size_t prev = 0;
  for (Time t = 0; t <= 40; ++t) {
    const std::size_t k = ForkScheduler::max_tasks(fork, t, 100);
    EXPECT_GE(k, prev) << "T=" << t;
    prev = k;
  }
}

TEST(ForkScheduler, CapLimitsTheSchedule) {
  const Fork fork({Processor{1, 1}, Processor{1, 1}});
  const SpiderSchedule s = ForkScheduler::schedule_within(fork, 1000, 5);
  EXPECT_EQ(s.num_tasks(), 5u);
}

TEST(ForkScheduler, MakespanFormHitsExactWindow) {
  const Fork fork({Processor{2, 5}, Processor{4, 1}});
  for (std::size_t n = 1; n <= 8; ++n) {
    const SpiderSchedule s = ForkScheduler::schedule(fork, n);
    ASSERT_EQ(s.num_tasks(), n);
    EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
    // One fewer time unit must not fit n tasks (minimality of the window).
    EXPECT_LT(ForkScheduler::max_tasks(fork, s.makespan() - 1, n), n) << "n=" << n;
  }
}

TEST(ForkScheduler, RejectsInvalidArguments) {
  const Fork fork({Processor{1, 1}});
  EXPECT_THROW(ForkScheduler::schedule(fork, 0), std::invalid_argument);
  EXPECT_THROW(ForkScheduler::schedule_within(fork, -3, 5), std::invalid_argument);
}

TEST(ForkScheduler, GreedyMakespanFormSkipsOverflowingPipelines) {
  // The first slave's 3-task pipeline, 4e18 + 2·4e18 + 1, overflows `Time`;
  // the second one's takes 4.
  const Fork fork({{4000000000000000000, 1}, {1, 1}});
  const SpiderSchedule s = ForkScheduler::greedy_schedule(fork, 3);
  EXPECT_EQ(s.num_tasks(), 3u);
  EXPECT_EQ(s.makespan(), 4);
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  EXPECT_THROW(ForkScheduler::greedy_schedule(Fork({{4000000000000000000, 1}}), 3),
               std::invalid_argument);
}

/// Random sweeps: optimality against brute force and agreement with the
/// paper's greedy.
class ForkProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForkProperty, MatchesBruteForceMakespan) {
  Rng rng(GetParam());
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 3));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 6));
    const Fork fork = random_fork(inst, p, params);
    EXPECT_EQ(ForkScheduler::makespan(fork, n), brute_force_makespan(Spider::from_fork(fork), n))
        << fork.describe() << " n=" << n;
  }
}

TEST_P(ForkProperty, GreedyNeverBeatsMooreHodgson) {
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const Fork fork = random_fork(inst, p, params);
    const Time t_lim = rng.uniform(0, 60);
    const std::size_t optimal = ForkScheduler::max_tasks(fork, t_lim, 100);
    const std::size_t greedy = ForkScheduler::greedy_max_tasks(fork, t_lim, 100);
    EXPECT_LE(greedy, optimal) << fork.describe() << " T=" << t_lim;
  }
}

TEST_P(ForkProperty, GreedyMatchesOptimumOnForkExpansions) {
  // On fork-structured node sets the ascending-c greedy is the paper's
  // optimal algorithm [2]; it must agree with Moore–Hodgson's count.
  Rng rng(GetParam());
  GeneratorParams params{1, 6, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 4));
    const Fork fork = random_fork(inst, p, params);
    const Time t_lim = rng.uniform(0, 40);
    EXPECT_EQ(ForkScheduler::greedy_max_tasks(fork, t_lim, 60),
              ForkScheduler::max_tasks(fork, t_lim, 60))
        << fork.describe() << " T=" << t_lim;
  }
}

TEST_P(ForkProperty, GreedySelectsWhatTheNodeByNodeGreedySelects) {
  Rng rng(GetParam() + 700);
  for (int trial = 0; trial < 40; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
    const GeneratorParams params{1, rng.uniform(2, 12), all_platform_classes()[trial % 5]};
    const Fork fork = random_fork(inst, p, params);
    const Time t_lim = rng.uniform(0, 150);
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 80));
    const std::vector<std::size_t> expected = node_by_node_greedy(fork, t_lim, cap);
    const SpiderSchedule s = ForkScheduler::greedy_schedule_within(fork, t_lim, cap);
    EXPECT_EQ(s.tasks_per_leg(), expected) << fork.describe() << " T=" << t_lim << " cap=" << cap;
    EXPECT_EQ(ForkScheduler::greedy_max_tasks(fork, t_lim, cap), s.num_tasks());
  }
}

TEST_P(ForkProperty, GreedyScheduleIsFeasibleAndMatchesItsCount) {
  Rng rng(GetParam() + 500);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const Fork fork = random_fork(inst, p, params);
    const Time t_lim = rng.uniform(0, 50);
    const SpiderSchedule s = ForkScheduler::greedy_schedule_within(fork, t_lim, 60);
    EXPECT_EQ(s.num_tasks(), ForkScheduler::greedy_max_tasks(fork, t_lim, 60))
        << fork.describe() << " T=" << t_lim;
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << fork.describe() << "\n" << report.summary();
    for (const SpiderTask& task : s.tasks) EXPECT_LE(task.end(s.spider), t_lim);
  }
}

TEST_P(ForkProperty, GreedyMakespanFormIsOptimal) {
  // The greedy count is the optimal count, so the smallest window reaching
  // `n` is the optimal makespan, and the greedy schedule of `n` tasks in it
  // ends exactly there.
  Rng rng(GetParam() + 900);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 40));
    const Fork fork = random_fork(inst, p, params);
    const SpiderSchedule s = ForkScheduler::greedy_schedule(fork, n);
    ASSERT_EQ(s.num_tasks(), n) << fork.describe();
    EXPECT_EQ(s.makespan(), ForkScheduler::makespan(fork, n)) << fork.describe() << " n=" << n;
    EXPECT_TRUE(check_feasibility(s).ok()) << fork.describe() << "\n"
                                           << check_feasibility(s).summary();
  }
}

TEST_P(ForkProperty, ViaSpiderReductionAgrees) {
  // A fork is a spider with unit legs; both schedulers must coincide.
  Rng rng(GetParam());
  GeneratorParams params{2, 7, PlatformClass::kUniform};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 3));
    const Fork fork = random_fork(inst, p, params);
    const Time t_lim = rng.uniform(0, 18);
    const std::size_t optimal = ForkScheduler::max_tasks(fork, t_lim, 50);
    if (optimal > 7) continue;  // keep the exhaustive check tractable
    EXPECT_EQ(optimal,
              brute_force_max_tasks(Spider::from_fork(fork), t_lim, optimal + 2))
        << fork.describe() << " T=" << t_lim;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkProperty, ::testing::Values(7u, 17u, 27u, 37u));

}  // namespace
}  // namespace mst
