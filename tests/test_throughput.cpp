// Tests of the makespan-curve / throughput analysis.

#include <gtest/gtest.h>

#include "mst/analysis/throughput.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

/// The optimal chain curve, every sample read from one emission profile.
ThroughputCurve chain_curve(const Chain& chain, const std::vector<std::size_t>& ns) {
  LegProfile profile;
  profile.reset(chain);
  return throughput_curve(chain, ns, [&](std::size_t n) { return profile.makespan(n); });
}

TEST(Throughput, CurveSamplesOptimalMakespans) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ThroughputCurve curve = chain_curve(chain, {1, 2, 5, 10});
  ASSERT_EQ(curve.n.size(), 4u);
  for (std::size_t i = 0; i < curve.n.size(); ++i) {
    EXPECT_EQ(curve.makespan[i], ChainScheduler::makespan(chain, curve.n[i]));
  }
  EXPECT_EQ(curve.marginal[0], 0);
  EXPECT_EQ(curve.marginal[2], curve.makespan[2] - curve.makespan[1]);
}

TEST(Throughput, ChainMakespansFromOneConstructionMatchTheSchedules) {
  // `makespan(chain, n)` and every sample of one profile read `T∞ - e_n`
  // from an emission profile; both must equal the materialized optimum.
  Rng rng(0x7C0);
  for (int trial = 0; trial < 150; ++trial) {
    Rng inst = rng.split();
    const auto cls = all_platform_classes()[static_cast<std::size_t>(rng.uniform(0, 4))];
    const Chain chain =
        random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 12)), {1, 12, cls});
    std::vector<std::size_t> ns;
    for (std::size_t n = static_cast<std::size_t>(rng.uniform(1, 3)); n <= 60;
         n += static_cast<std::size_t>(rng.uniform(1, 9))) {
      ns.push_back(n);
    }
    const ThroughputCurve curve = chain_curve(chain, ns);
    ASSERT_EQ(curve.makespan.size(), ns.size());
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const Time expected = ChainScheduler::schedule(chain, ns[i]).makespan();
      EXPECT_EQ(ChainScheduler::makespan(chain, ns[i]), expected)
          << chain.describe() << " n=" << ns[i];
      EXPECT_EQ(curve.makespan[i], expected) << chain.describe() << " n=" << ns[i];
    }
  }
}

TEST(Throughput, AffineTailFitRecoversSteadyRate) {
  // A single-processor chain is affine from the start:
  // M(n) = c + (n-1)*max(c,w) + w.
  const Chain chain = Chain::from_vectors({2}, {5});
  const ThroughputCurve curve = chain_curve(chain, {1, 2, 4, 8, 16, 32});
  EXPECT_NEAR(curve.fitted_rate, 0.2, 1e-9);  // 1/max(c,w)
  EXPECT_EQ(curve.fitted_startup, 2);         // c + w - max(c,w)
  EXPECT_NEAR(curve.steady_rate, 0.2, 1e-12);
}

TEST(Throughput, EfficiencyApproachesOneOnLongRuns) {
  Rng rng(9);
  const Chain chain = random_chain(rng, 4, {1, 8, PlatformClass::kUniform});
  const ThroughputCurve curve = chain_curve(chain, {4, 16, 64, 256, 1024});
  EXPECT_GT(curve.efficiency_at_tail(), 0.95);
  EXPECT_LE(curve.efficiency_at_tail(), 1.0 + 1e-9);
}

TEST(Throughput, SpiderCurveIsComputed) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const ThroughputCurve curve = throughput_curve(
      spider, {2, 8, 32, 128}, [&](std::size_t n) { return SpiderScheduler::makespan(spider, n); });
  EXPECT_GT(curve.steady_rate, 0.0);
  EXPECT_GT(curve.fitted_rate, 0.0);
  EXPECT_GT(curve.efficiency_at_tail(), 0.9);
}

TEST(Throughput, TasksToReachRateFraction) {
  const Chain chain = Chain::from_vectors({2, 1, 3}, {4, 6, 2});
  const std::size_t n90 = tasks_to_reach_rate_fraction(chain, 0.9);
  const std::size_t n99 = tasks_to_reach_rate_fraction(chain, 0.99);
  EXPECT_GE(n99, n90);
  // The returned count actually achieves the fraction.
  const double rate = chain_steady_state_rate(chain);
  const double tp = static_cast<double>(n90) /
                    static_cast<double>(ChainScheduler::makespan(chain, n90));
  EXPECT_GE(tp, 0.9 * rate - 1e-9);
}

TEST(Throughput, ValidatesInputs) {
  const Chain chain = Chain::from_vectors({1}, {1});
  const auto unsampled = [](std::size_t) -> Time {
    ADD_FAILURE() << "sampled before the counts were validated";
    return 0;
  };
  EXPECT_THROW(throughput_curve(chain, {}, unsampled), std::invalid_argument);
  EXPECT_THROW(throughput_curve(chain, {3, 2}, unsampled), std::invalid_argument);
  EXPECT_THROW(throughput_curve(chain, {0, 2}, unsampled), std::invalid_argument);
  EXPECT_THROW(tasks_to_reach_rate_fraction(chain, 0.0), std::invalid_argument);
  EXPECT_THROW(tasks_to_reach_rate_fraction(chain, 1.0), std::invalid_argument);
}

TEST(Throughput, MarginalCostStabilizesAtInverseRate) {
  // Far in the tail, each extra task costs exactly 1/rate time units for an
  // integer-rate platform.
  const Chain chain = Chain::from_vectors({2, 2}, {4, 4});  // rate 1/2
  const Time m1 = ChainScheduler::makespan(chain, 200);
  const Time m2 = ChainScheduler::makespan(chain, 201);
  EXPECT_EQ(m2 - m1, 2);
}

}  // namespace
}  // namespace mst
