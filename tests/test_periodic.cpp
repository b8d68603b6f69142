// Tests of the exact LP rates and the periodic (bandwidth-centric)
// schedule construction, whose schedules the registry's `periodic` entry
// materializes.

#include <gtest/gtest.h>

#include <cmath>
#include <variant>

#include "mst/api/registry.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

/// The exact per-processor LP rates the pattern is built from.
std::vector<Rational> lp_rates(const Chain& chain) { return chain_periodic_pattern(chain).rates; }

/// `n` tasks of the repeated block, through the registry's `periodic` entry.
api::SolveResult periodic(const Chain& chain, std::size_t n) {
  return api::registry().solve(chain, "periodic", n);
}

TEST(LpRates, SingleProcessor) {
  const auto rates = lp_rates(Chain::from_vectors({2}, {5}));
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_EQ(rates[0], Rational(1, 5));  // compute-bound
  const auto link_bound = lp_rates(Chain::from_vectors({5}, {2}));
  EXPECT_EQ(link_bound[0], Rational(1, 5));  // link-bound
}

TEST(LpRates, ForwardGreedyAllocation) {
  // Chain (c=2,w=3),(c=3,w=5): x0 = min(1/3, 1/2) = 1/3, residual link0 =
  // 1/6; x1 = min(1/5, 1/6, 1/3) = 1/6.
  const auto rates = lp_rates(Chain::from_vectors({2, 3}, {3, 5}));
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], Rational(1, 3));
  EXPECT_EQ(rates[1], Rational(1, 6));
}

TEST(LpRates, SaturatedFirstLinkStarvesTheTail) {
  // (c=2,w=2): processor 0 takes the whole link-0 capacity.
  const auto rates = lp_rates(Chain::from_vectors({2, 1}, {2, 1}));
  EXPECT_EQ(rates[0], Rational(1, 2));
  EXPECT_EQ(rates[1], Rational(0));
}

TEST(LpRates, ZeroLatencyLinksAreUnbounded) {
  const auto rates = lp_rates(Chain::from_vectors({0, 0}, {4, 4}));
  EXPECT_EQ(rates[0], Rational(1, 4));
  EXPECT_EQ(rates[1], Rational(1, 4));
}

TEST(LpRates, SumMatchesDoubleRecursionEverywhere) {
  Rng rng(314);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 30; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 7)), params);
    const auto rates = lp_rates(chain);
    double total = 0;
    for (const Rational& r : rates) total += r.to_double();
    EXPECT_NEAR(total, chain_steady_state_rate(chain), 1e-9) << chain.describe();
  }
}

TEST(LpRates, RatesSatisfyAllConstraintsExactly) {
  Rng rng(315);
  GeneratorParams params{1, 9, PlatformClass::kCorrelated};
  for (int trial = 0; trial < 20; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const auto rates = lp_rates(chain);
    for (std::size_t q = 0; q < rates.size(); ++q) {
      EXPECT_FALSE(Rational(1, chain.work(q)) < rates[q]) << chain.describe();
    }
    for (std::size_t k = 0; k < chain.size(); ++k) {
      if (chain.comm(k) == 0) continue;
      // Link k's capacity less the rates of every processor behind it.
      Rational slack(1, chain.comm(k));
      for (std::size_t j = k; j < rates.size(); ++j) slack = slack - rates[j];
      EXPECT_FALSE(slack < Rational(0)) << chain.describe() << " link " << k;
    }
  }
}

TEST(Periodic, PatternCountsMatchRates) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const PeriodicPattern pattern = chain_periodic_pattern(chain);
  // Rates 1/3 and 1/6 -> hyperperiod 6, counts {2, 1}.
  EXPECT_EQ(pattern.hyperperiod, 6);
  ASSERT_EQ(pattern.counts.size(), 2u);
  EXPECT_EQ(pattern.counts[0], 2u);
  EXPECT_EQ(pattern.counts[1], 1u);
  EXPECT_EQ(pattern.tasks_per_period(), 3u);
  EXPECT_NEAR(pattern.rate(), 0.5, 1e-12);
}

TEST(Periodic, BlockContainsExactlyTheCounts) {
  Rng rng(316);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 15; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const PeriodicPattern pattern = chain_periodic_pattern(chain);
    std::vector<std::size_t> seen(chain.size(), 0);
    for (std::size_t q : pattern.block) {
      ASSERT_LT(q, chain.size());
      ++seen[q];
    }
    EXPECT_EQ(seen, pattern.counts) << chain.describe();
  }
}

TEST(Periodic, MaterializedScheduleIsFeasible) {
  Rng rng(317);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const PeriodicPattern pattern = chain_periodic_pattern(chain);
    const api::SolveResult s = periodic(chain, pattern.tasks_per_period() * 3);
    EXPECT_EQ(s.tasks, pattern.tasks_per_period() * 3);
    EXPECT_TRUE(api::check_feasibility(s).ok()) << chain.describe();
  }
}

TEST(Periodic, ThroughputConvergesToLpRate) {
  Rng rng(318);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(2, 5)), params);
    const PeriodicPattern pattern = chain_periodic_pattern(chain);
    const std::size_t reps = 60;
    const api::SolveResult s = periodic(chain, pattern.tasks_per_period() * reps);
    const double tp = static_cast<double>(s.tasks) / static_cast<double>(s.makespan);
    EXPECT_GT(tp, 0.85 * pattern.rate()) << chain.describe();
    EXPECT_LE(tp, pattern.rate() + 1e-9) << chain.describe();
  }
}

TEST(Periodic, NeverBeatsTheOptimalSchedule) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const PeriodicPattern pattern = chain_periodic_pattern(chain);
  for (std::size_t reps : {1u, 4u, 16u}) {
    const api::SolveResult s = periodic(chain, pattern.tasks_per_period() * reps);
    EXPECT_GE(s.makespan, ChainScheduler::makespan(chain, s.tasks));
  }
}

TEST(Periodic, RegistryPrefixBuildsOnlyTheTasksItNeeds) {
  // Five nearly coprime processor times push the hyperperiod block to
  // ~4.6e12 positions; a 3-task prefix must not build the whole block.  The
  // 4-processor chain with the same first four times fails the same way
  // when the block is built whole.
  for (const Chain& chain : {Chain::from_vectors({1, 1, 1, 1, 1}, {997, 991, 983, 977, 971}),
                             Chain::from_vectors({1, 1, 1, 1}, {997, 991, 983, 977})}) {
    const api::SolveResult result = periodic(chain, 3);
    EXPECT_EQ(result.tasks, 3u);
    EXPECT_TRUE(api::check_feasibility(result).ok()) << chain.describe();
  }
}

TEST(Periodic, RegistryPrefixRepeatsTheFullBlock) {
  Rng rng(319);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 12; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const PeriodicPattern pattern = chain_periodic_pattern(chain);
    const std::size_t block = pattern.tasks_per_period();
    for (const std::size_t n : {std::size_t{1}, block > 1 ? block - 1 : 1, block,
                                2 * block + 3}) {
      const api::SolveResult result = periodic(chain, n);
      const auto& schedule = std::get<ChainSchedule>(result.schedule);
      ASSERT_EQ(schedule.num_tasks(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(schedule.tasks[i].proc, pattern.block[i % block])
            << chain.describe() << " n=" << n << " task " << i;
      }
    }
  }
}

}  // namespace
}  // namespace mst
