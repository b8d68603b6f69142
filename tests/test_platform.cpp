// Unit tests for the platform models: chains, forks, spiders, trees and the
// seeded instance generators.

#include <gtest/gtest.h>

#include <stdexcept>

#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/generator.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

namespace mst {
namespace {

TEST(Chain, BuildsFromVectors) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.comm(0), 2);
  EXPECT_EQ(chain.work(0), 3);
  EXPECT_EQ(chain.comm(1), 3);
  EXPECT_EQ(chain.work(1), 5);
}

TEST(Chain, RejectsEmptyAndInvalid) {
  EXPECT_THROW(Chain(std::vector<Processor>{}), std::invalid_argument);
  EXPECT_THROW(Chain({Processor{-1, 2}}), std::invalid_argument);
  EXPECT_THROW(Chain({Processor{1, 0}}), std::invalid_argument);
  EXPECT_THROW(Chain::from_vectors({1, 2}, {1}), std::invalid_argument);
}

TEST(Chain, AllowsZeroLatencyLinks) {
  EXPECT_NO_THROW(Chain({Processor{0, 1}}));
}

TEST(Chain, TInfinityMatchesPaperFormula) {
  // T∞ = c_1 + (n-1)·max(w_1, c_1) + w_1.
  const Chain compute_bound = Chain::from_vectors({2}, {5});
  EXPECT_EQ(compute_bound.t_infinity(1), 7);
  EXPECT_EQ(compute_bound.t_infinity(4), 2 + 3 * 5 + 5);
  const Chain comm_bound = Chain::from_vectors({5}, {2});
  EXPECT_EQ(comm_bound.t_infinity(4), 5 + 3 * 5 + 2);
  EXPECT_THROW((void)compute_bound.t_infinity(0), std::invalid_argument);
}

TEST(Chain, TInfinityOnlyDependsOnFirstProcessor) {
  const Chain chain = Chain::from_vectors({2, 100}, {5, 100});
  EXPECT_EQ(chain.t_infinity(3), Chain::from_vectors({2}, {5}).t_infinity(3));
}

TEST(Chain, DescribeIsHumanReadable) {
  const Chain chain = Chain::from_vectors({2}, {3});
  EXPECT_EQ(chain.describe(), "chain[(c=2,w=3)]");
}

TEST(Fork, BasicAccessors) {
  const Fork fork({Processor{2, 5}, Processor{7, 3}});
  ASSERT_EQ(fork.size(), 2u);
  EXPECT_EQ(fork.slave(1), (Processor{7, 3}));
  EXPECT_THROW((void)fork.slave(2), std::invalid_argument);
}

TEST(Fork, RejectsEmptyAndInvalid) {
  EXPECT_THROW(Fork(std::vector<Processor>{}), std::invalid_argument);
  EXPECT_THROW(Fork({Processor{1, -1}}), std::invalid_argument);
}

TEST(Spider, BuildsFromLegs) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  EXPECT_EQ(spider.num_legs(), 2u);
  EXPECT_EQ(spider.num_processors(), 3u);
  EXPECT_THROW((void)spider.leg(2), std::invalid_argument);
}

TEST(Spider, FromForkHasOneUnitLegPerSlave) {
  const Fork fork({Processor{1, 2}, Processor{3, 4}});
  const Spider spider = Spider::from_fork(fork);
  ASSERT_EQ(spider.num_legs(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    ASSERT_EQ(spider.leg(l).size(), 1u);
    EXPECT_EQ(spider.leg(l).proc(0), fork.slave(l));
  }
}

TEST(Spider, RejectsEmpty) {
  EXPECT_THROW(Spider(std::vector<Chain>{}), std::invalid_argument);
}

TEST(Tree, MasterOnlyByDefault) {
  const Tree tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.num_slaves(), 0u);
  EXPECT_TRUE(tree.is_root(0));
  EXPECT_THROW((void)tree.proc(0), std::invalid_argument);
  EXPECT_THROW((void)tree.parent(0), std::invalid_argument);
}

TEST(Tree, AddNodesAndNavigate) {
  Tree tree;
  const NodeId a = tree.add_node(0, {2, 3});
  const NodeId b = tree.add_node(a, {4, 5});
  const NodeId c = tree.add_node(0, {1, 1});
  EXPECT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree.parent(b), a);
  EXPECT_EQ(tree.children(0).size(), 2u);
  EXPECT_EQ(tree.depth(b), 2u);
  EXPECT_EQ(tree.depth(c), 1u);
  const auto path = tree.path_from_root(b);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], a);
  EXPECT_EQ(path[1], b);
}

TEST(Tree, RejectsInvalidInsertions) {
  Tree tree;
  EXPECT_THROW(tree.add_node(5, {1, 1}), std::invalid_argument);
  EXPECT_THROW(tree.add_node(0, {-1, 1}), std::invalid_argument);
  EXPECT_THROW(tree.add_node(0, {1, 0}), std::invalid_argument);
}

TEST(Tree, ChainEmbeddingIsOnePath) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const Tree tree = tree_from_chain(chain);
  ASSERT_EQ(tree.num_slaves(), 2u);
  for (NodeId v = 1; v <= 2; ++v) {
    EXPECT_EQ(tree.parent(v), v - 1);
    EXPECT_EQ(tree.proc(v), chain.proc(v - 1));
  }
  EXPECT_TRUE(tree.children(2).empty());
}

TEST(Tree, SpiderEmbeddingNumbersNodesLegByLeg) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const Tree tree = tree_from_spider(spider);
  ASSERT_EQ(tree.num_slaves(), 3u);
  EXPECT_EQ(tree.children(0), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(tree.parent(2), 1u);
  // Node ids are assigned leg by leg, and spider_node names the same ids.
  EXPECT_EQ(spider_node(spider, {0, 0}), 1u);
  EXPECT_EQ(spider_node(spider, {0, 1}), 2u);
  EXPECT_EQ(spider_node(spider, {1, 0}), 3u);
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    for (std::size_t q = 0; q < spider.leg(l).size(); ++q) {
      EXPECT_EQ(tree.proc(spider_node(spider, {l, q})), spider.leg(l).proc(q));
    }
  }
  EXPECT_THROW((void)spider_node(spider, {1, 1}), std::invalid_argument);
}

TEST(Generator, DeterministicForSeed) {
  GeneratorParams params;
  Rng a(5);
  Rng b(5);
  EXPECT_EQ(random_chain(a, 6, params), random_chain(b, 6, params));
}

TEST(Generator, RespectsBoundsForAllClasses) {
  for (PlatformClass cls : all_platform_classes()) {
    GeneratorParams params{1, 20, cls};
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      const Processor p = random_chain(rng, 1, params).proc(0);
      EXPECT_GE(p.comm, 1) << to_string(cls);
      EXPECT_LE(p.comm, 20) << to_string(cls);
      EXPECT_GE(p.work, 1) << to_string(cls);
      EXPECT_LE(p.work, 20) << to_string(cls);
    }
  }
}

TEST(Generator, CommBoundClassSkewsTowardSlowLinks) {
  GeneratorParams params{1, 100, PlatformClass::kCommBound};
  Rng rng(23);
  double comm_sum = 0;
  double work_sum = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const Processor p = random_chain(rng, 1, params).proc(0);
    comm_sum += static_cast<double>(p.comm);
    work_sum += static_cast<double>(p.work);
  }
  EXPECT_GT(comm_sum / trials, work_sum / trials);
}

TEST(Generator, ComputeBoundClassSkewsTowardSlowProcessors) {
  GeneratorParams params{1, 100, PlatformClass::kComputeBound};
  Rng rng(29);
  double comm_sum = 0;
  double work_sum = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const Processor p = random_chain(rng, 1, params).proc(0);
    comm_sum += static_cast<double>(p.comm);
    work_sum += static_cast<double>(p.work);
  }
  EXPECT_LT(comm_sum / trials, work_sum / trials);
}

TEST(Generator, ProducesValidPlatforms) {
  GeneratorParams params{1, 10, PlatformClass::kUniform};
  Rng rng(31);
  const Spider spider = random_spider(rng, 4, 3, params);
  EXPECT_EQ(spider.num_legs(), 4u);
  for (const Chain& leg : spider.legs()) {
    EXPECT_GE(leg.size(), 1u);
    EXPECT_LE(leg.size(), 3u);
  }
  const Tree tree = random_tree(rng, 10, params);
  EXPECT_EQ(tree.num_slaves(), 10u);
}

TEST(Generator, RejectsDegenerateRequests) {
  GeneratorParams params;
  Rng rng(1);
  EXPECT_THROW(random_chain(rng, 0, params), std::invalid_argument);
  EXPECT_THROW(random_spider(rng, 0, 2, params), std::invalid_argument);
  EXPECT_THROW(random_tree(rng, 0, params), std::invalid_argument);
  GeneratorParams bad{5, 2, PlatformClass::kUniform};
  EXPECT_THROW(random_chain(rng, 1, bad), std::invalid_argument);
}

TEST(Generator, ClassNamesAreDistinct) {
  std::set<std::string> names;
  for (PlatformClass cls : all_platform_classes()) names.insert(to_string(cls));
  EXPECT_EQ(names.size(), all_platform_classes().size());
}

}  // namespace
}  // namespace mst
