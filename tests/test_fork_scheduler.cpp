// Tests of the §6 fork (star) scheduler: decision form, makespan form, and
// the registry's `greedy` entry — the paper's ascending-c greedy, which is
// the spider greedy on unit legs — pinned to `optimal`.

#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "mst/api/registry.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

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

TEST(ForkScheduler, MakespanFormSkipsOverflowingPipelines) {
  // The first slave's 3-task pipeline, 4e18 + 2·4e18 + 1, overflows `Time`;
  // the second one's takes 4.
  const Fork fork({{4000000000000000000, 1}, {1, 1}});
  const SpiderSchedule s = ForkScheduler::schedule(fork, 3);
  EXPECT_EQ(s.num_tasks(), 3u);
  EXPECT_EQ(s.makespan(), 4);
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  EXPECT_THROW(ForkScheduler::schedule(Fork({{4000000000000000000, 1}}), 3),
               std::invalid_argument);
}

/// The payload of a registry result, checked against Definition 1.
template <typename Result>
void expect_feasible_payload(const Result& result, const std::string& where) {
  if (std::holds_alternative<std::monostate>(result.schedule)) return;  // nothing scheduled
  const FeasibilityReport report = check_feasibility(std::get<SpiderSchedule>(result.schedule));
  EXPECT_TRUE(report.ok()) << where << "\n" << report.summary();
}

// The fold: the registry's fork `greedy` runs the spider greedy that
// `optimal` runs, so on every decision its task count equals `optimal`'s,
// its makespan-form makespan does too, and every payload is feasible.
TEST(ForkGreedyEntry, MatchesOptimalCountsAndMakespans) {
  const api::Registry& registry = api::registry();
  Rng rng(0xF01D);
  for (int trial = 0; trial < 500; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const api::Platform fork(random_fork(inst, p, params));
    const std::string where = std::get<Fork>(fork).describe();

    const auto n = static_cast<std::size_t>(rng.uniform(1, 40));
    const api::SolveResult greedy = registry.solve(fork, "greedy", n);
    EXPECT_EQ(greedy.tasks, n) << where;
    EXPECT_EQ(greedy.makespan, registry.solve(fork, "optimal", n).makespan)
        << where << " n=" << n;
    expect_feasible_payload(greedy, where + " n=" + std::to_string(n));

    api::SolveOptions options;
    options.cap = rng.chance(0.25) ? api::SolveOptions{}.cap
                                   : static_cast<std::size_t>(rng.uniform(1, 80));
    const Time deadline = rng.uniform(0, 150);
    const std::string at =
        where + " T=" + std::to_string(deadline) + " cap=" + std::to_string(options.cap);
    const api::DecisionResult decision = registry.solve_within(fork, "greedy", deadline, options);
    EXPECT_EQ(decision.tasks, registry.solve_within(fork, "optimal", deadline, options).tasks)
        << at;
    EXPECT_FALSE(decision.optimal) << at;
    expect_feasible_payload(decision, at);
  }
}

/// Random sweeps: optimality against brute force.
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
