// Tests of the steady-state (bandwidth-centric) rates and makespan lower
// bounds.

#include <gtest/gtest.h>

#include "mst/baselines/bounds.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

TEST(Bounds, SingleProcessorRate) {
  // Rate = min(1/c, 1/w).
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(Chain::from_vectors({2}, {5})), 0.2);
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(Chain::from_vectors({5}, {2})), 0.2);
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(Chain::from_vectors({4}, {4})), 0.25);
}

TEST(Bounds, ChainRecursionNestsCorrectly) {
  // lambda_1 = min(1/c1, 1/w1 + min(1/c2, 1/w2)).
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const double inner = std::min(1.0 / 3.0, 1.0 / 5.0);
  const double expected = std::min(1.0 / 2.0, 1.0 / 3.0 + inner);
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(chain), expected);
}

TEST(Bounds, FirstLinkCapsTheChainRate) {
  // However fast the tail, the first link is a hard ceiling.
  const Chain chain = Chain::from_vectors({4, 1, 1, 1}, {1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(chain), 0.25);
}

TEST(Bounds, ZeroLatencyLinkIsTransparent) {
  const Chain chain = Chain::from_vectors({0}, {2});
  EXPECT_DOUBLE_EQ(chain_steady_state_rate(chain), 0.5);
}

TEST(Bounds, SpiderRateFillsCheapLegsFirst) {
  // Leg A: c=1, w=1 (rate 1, cost 1/task); leg B: c=2, w=2.  Port budget 1
  // is exhausted by leg A alone.
  const Spider greedy_case{Chain::from_vectors({1}, {1}), Chain::from_vectors({2}, {2})};
  EXPECT_DOUBLE_EQ(spider_steady_state_rate(greedy_case), 1.0);
  // Slower first leg leaves port budget for the second.
  const Spider shared{Chain::from_vectors({1}, {4}), Chain::from_vectors({2}, {4})};
  // Leg A: rate 1/4 using budget 1/4; leg B: rate 1/4 using budget 1/2;
  // total 1/2 of port used -> both fully served.
  EXPECT_DOUBLE_EQ(spider_steady_state_rate(shared), 0.5);
}

TEST(Bounds, TreeRateMatchesChainAndSpiderSpecialCases) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  EXPECT_DOUBLE_EQ(tree_steady_state_rate(tree_from_chain(chain)),
                   chain_steady_state_rate(chain));
  const Spider spider{Chain::from_vectors({1}, {4}), Chain::from_vectors({2}, {4})};
  EXPECT_DOUBLE_EQ(tree_steady_state_rate(tree_from_spider(spider)),
                   spider_steady_state_rate(spider));
}

TEST(Bounds, TreeRateCountsInteriorComputation) {
  // A relay node that also computes adds its own 1/w.
  Tree tree;
  const NodeId mid = tree.add_node(0, {1, 2});
  tree.add_node(mid, {1, 2});
  // Rate at mid: 1/2 + min(child rate 1/2, link 1/1, budget 1/1) = 1.
  // Root: min(1, budget 1/c=1) = 1.
  EXPECT_DOUBLE_EQ(tree_steady_state_rate(tree), 1.0);
}

TEST(Bounds, LowerBoundsAreSafe) {
  Rng rng(77);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 25; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    const Chain chain = random_chain(inst, p, params);
    EXPECT_LE(makespan_lower_bound(legs_of(chain), n), ChainScheduler::makespan(chain, n))
        << chain.describe() << " n=" << n;
  }
  for (int trial = 0; trial < 15; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Spider spider = random_spider(inst, legs, 3, params);
    EXPECT_LE(makespan_lower_bound(legs_of(spider), n), SpiderScheduler::makespan(spider, n))
        << spider.describe() << " n=" << n;
  }
}

TEST(Bounds, OptimalThroughputApproachesSteadyStateRate) {
  // As n grows, n / makespan(n) must converge to (and never exceed) the
  // steady-state rate.
  const Chain chain = Chain::from_vectors({2, 1, 3}, {4, 6, 2});
  const double rate = chain_steady_state_rate(chain);
  double prev_gap = 1e9;
  for (std::size_t n : {8u, 32u, 128u, 512u}) {
    const double tp =
        static_cast<double>(n) / static_cast<double>(ChainScheduler::makespan(chain, n));
    EXPECT_LE(tp, rate + 1e-9) << "n=" << n;
    const double gap = rate - tp;
    EXPECT_LE(gap, prev_gap + 1e-9) << "n=" << n;
    prev_gap = gap;
  }
  // At n = 512 the gap is tiny.
  const double tp512 =
      512.0 / static_cast<double>(ChainScheduler::makespan(chain, 512));
  EXPECT_NEAR(tp512, rate, rate * 0.05);
}

TEST(Bounds, LowerBoundSingleTaskIsPathPlusWork) {
  const Chain chain = Chain::from_vectors({3, 1, 1}, {10, 6, 2});
  // Best single task: q2 -> 5 + 2 = 7.
  EXPECT_EQ(makespan_lower_bound(legs_of(chain), 1), 7);
  EXPECT_EQ(ChainScheduler::makespan(chain, 1), 7);  // tight here
}

TEST(Bounds, RejectsZeroTasks) {
  const Chain chain = Chain::from_vectors({1}, {1});
  EXPECT_THROW(makespan_lower_bound(legs_of(chain), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mst
