// Tests of the tree ASAP estimator, tree forward greedy and the exhaustive
// tree optimum — including the strong cross-check that the exhaustive tree
// optimum on spider-shaped trees matches the paper's (optimal) spider
// algorithm.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/workload/workload.hpp"
#include "support/asap_peek.hpp"
#include "support/tree_replay.hpp"

namespace mst {
namespace {

Time greedy_makespan(const Tree& tree, std::size_t n) {
  return oracle::asap_tree_makespan(tree, oracle::forward_greedy_tree(tree, n));
}

TEST(TreeAsap, SingleTaskTransit) {
  const Tree tree = tree_from_chain(Chain::from_vectors({2, 3}, {3, 5}));
  TreeAsapState state(tree);
  EXPECT_EQ(oracle::peek_completion(state, 1), 5);   // 2 + 3
  EXPECT_EQ(oracle::peek_completion(state, 2), 10);  // 2 + 3 + 5
  EXPECT_EQ(state.commit(2), 10);
}

TEST(TreeAsap, PeekMatchesCommit) {
  Rng rng(21);
  const Tree tree = random_tree(rng, 7, {1, 8, PlatformClass::kUniform});
  TreeAsapState state(tree);
  for (int i = 0; i < 20; ++i) {
    const auto dest = static_cast<NodeId>(rng.uniform(1, static_cast<Time>(tree.size()) - 1));
    const Time predicted = oracle::peek_completion(state, dest);
    EXPECT_EQ(state.commit(dest), predicted);
  }
}

TEST(TreeAsap, MatchesEventSimulatorExactly) {
  Rng rng(22);
  Rng draws(220);  // workloads, apart so the trees stay as they were
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 15; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 10)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    std::vector<NodeId> dests(n);
    for (NodeId& d : dests) {
      d = static_cast<NodeId>(rng.uniform(1, static_cast<Time>(tree.size()) - 1));
    }
    EXPECT_EQ(oracle::asap_tree_makespan(tree, dests),
              sim::simulate_dispatch(tree, dests).makespan)
        << tree.describe() << " trial " << trial;

    // Sized and release-dated: every task starts, and leaves the master,
    // exactly when the simulator's does.
    for (const auto& [sized, released] : {std::pair{true, false}, {false, true}, {true, true}}) {
      std::vector<Time> sizes;
      std::vector<Time> release;
      Time t = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (sized) sizes.push_back(draws.uniform(1, 4));
        if (released) release.push_back(t += draws.uniform(0, 6));
      }
      const Workload workload(n, std::move(sizes), std::move(release));
      const sim::SimResult simulated = sim::simulate_dispatch(tree, dests, workload);
      TreeAsapState state(tree);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<Time> emissions(state.depth(dests[i]));
        const Time size = workload.size_of(i);
        const Time end = state.commit(dests[i], size, workload.release_of(i));
        state.hop_emissions(dests[i], size, emissions.data());
        EXPECT_EQ(end - size * tree.proc(dests[i]).work, simulated.tasks[i].start)
            << tree.describe() << " trial " << trial << " task " << i;
        EXPECT_EQ(emissions.front(), simulated.tasks[i].master_emission)
            << tree.describe() << " trial " << trial << " task " << i;
      }
    }
  }
}

TEST(TreeAsap, RejectsMasterDestination) {
  const Tree tree = tree_from_chain(Chain::from_vectors({1}, {1}));
  TreeAsapState state(tree);
  EXPECT_THROW((void)oracle::peek_completion(state, 0), std::invalid_argument);
  EXPECT_THROW(state.commit(5), std::invalid_argument);
}

/// Runs the one-pass earliest-completion choice and the peek reference in
/// lockstep over `workload` on two states of the same platform: each step
/// must pick the same slave (each state then commits its own pick).
void expect_same_choices(TreeAsapState one_pass, TreeAsapState peeks, const Workload& workload) {
  for (std::size_t i = 0; i < workload.count(); ++i) {
    const Time size = workload.size_of(i);
    const Time release = workload.release_of(i);
    const NodeId chosen = one_pass.earliest_completion(size, release);
    const NodeId reference = oracle::peek_earliest_completion(peeks, size, release);
    ASSERT_EQ(chosen, reference) << "task " << i;
    EXPECT_EQ(one_pass.commit(chosen, size, release), peeks.commit(reference, size, release));
  }
  EXPECT_EQ(one_pass.ect_nodes(), workload.count() * (one_pass.size() - 1));
}

TEST(TreeAsap, OnePassEarliestCompletionMatchesPeeks) {
  // Trees of every depth bias, chains and spiders, with zero-latency links,
  // sizes and release dates: the one ascending pass chooses exactly the
  // sequence one peek per slave chooses, ties toward the smaller id.
  Rng rng(0x21);
  for (int trial = 0; trial < 30; ++trial) {
    Rng inst = rng.split();
    const GeneratorParams params{1, 9, PlatformClass::kUniform};
    const auto n = static_cast<std::size_t>(inst.uniform(1, 40));
    std::vector<Time> sizes(n);
    std::vector<Time> release(n);
    for (Time& size : sizes) size = inst.uniform(1, 4);
    for (Time& r : release) r = inst.uniform(0, static_cast<std::int64_t>(4 * n));
    // Zero-latency links make ties common.
    Tree tree;
    const auto slaves = static_cast<std::size_t>(inst.uniform(1, 16));
    const double depth_bias = inst.uniform(0, 4) / 4.0;
    for (std::size_t v = 1; v <= slaves; ++v) {
      const NodeId parent = inst.uniform(0, 3) < 4 * depth_bias
                                ? static_cast<NodeId>(v - 1)
                                : static_cast<NodeId>(inst.uniform(0, static_cast<Time>(v) - 1));
      tree.add_node(parent, {inst.uniform(0, 9), inst.uniform(1, 9)});
    }
    const Chain chain = random_chain(inst, static_cast<std::size_t>(inst.uniform(1, 12)), params);
    const Spider spider = random_spider(inst, static_cast<std::size_t>(inst.uniform(1, 5)), 4,
                                        params);
    for (const Workload& workload : {Workload::identical(n), Workload(n, sizes, {}),
                                     Workload::released(release), Workload(n, sizes, release)}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", " + to_string(workload.features()));
      expect_same_choices(TreeAsapState(tree), TreeAsapState(tree), workload);
      expect_same_choices(TreeAsapState(chain), TreeAsapState(chain), workload);
      expect_same_choices(TreeAsapState(spider), TreeAsapState(spider), workload);
    }
  }
}

/// The `invalid_argument` message `choose` throws, or "" when it returns.
template <typename Choose>
std::string overflow_message(Choose&& choose) {
  try {
    (void)choose();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TreeAsap, OnePassEarliestCompletionOverflowsLikePeeks) {
  // A hop past the largest time throws from both choices, with the same
  // message: on the first hop (a size-scaled link), deep in a chain (the
  // arrival only overflows at the fourth hop), and on an execution.
  const Time big = Time{1} << 61;
  const Chain first_hop = Chain::from_vectors({big}, {1});
  const Chain deep = Chain::from_vectors({big, big, big, big}, {1, 1, 1, 1});
  const Chain execution = Chain::from_vectors({1}, {big});
  for (const auto& [chain, size] : {std::pair{first_hop, Time{4}}, std::pair{deep, Time{1}},
                                    std::pair{execution, Time{4}}}) {
    TreeAsapState one_pass(chain);
    TreeAsapState peeks(chain);
    const std::string expected =
        overflow_message([&] { return oracle::peek_earliest_completion(peeks, size, 0); });
    EXPECT_NE(expected, "") << chain.describe();
    EXPECT_EQ(overflow_message([&] { return one_pass.earliest_completion(size, 0); }), expected)
        << chain.describe();
  }
  // One hop shorter, both stay below the limit, choose and agree.
  const Chain shallow = Chain::from_vectors({big, big, big}, {1, 1, 1});
  TreeAsapState one_pass(shallow);
  TreeAsapState peeks(shallow);
  EXPECT_EQ(one_pass.earliest_completion(), oracle::peek_earliest_completion(peeks));
}

TEST(TreeGreedy, MatchesChainGreedyOnChains) {
  // On chain-shaped trees the tree greedy must behave like the chain ECT
  // greedy (same estimates, same scan order).
  Rng rng(23);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Time tree_greedy = greedy_makespan(tree_from_chain(chain), n);
    // Compare against the optimal as a sanity floor and the chain T∞ roof.
    EXPECT_GE(tree_greedy, ChainScheduler::makespan(chain, n));
    EXPECT_LE(tree_greedy, chain.t_infinity(n) * 2);
  }
}

TEST(TreeExact, MatchesChainOptimalOnChains) {
  Rng rng(24);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 3)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 6));
    EXPECT_EQ(brute_force_tree_makespan(tree_from_chain(chain), n),
              ChainScheduler::makespan(chain, n))
        << chain.describe() << " n=" << n;
  }
}

TEST(TreeExact, MatchesSpiderOptimalOnSpiders) {
  // Theorem 3, re-verified through a completely independent search space
  // (tree destination sequences instead of the fork reduction).
  Rng rng(25);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 3));
    const Spider spider = random_spider(inst, legs, 2, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 5));
    EXPECT_EQ(brute_force_tree_makespan(tree_from_spider(spider), n),
              SpiderScheduler::makespan(spider, n))
        << spider.describe() << " n=" << n;
  }
}

TEST(TreeExact, GreedyIsBoundedByExactOptimum) {
  Rng rng(26);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 5));
    EXPECT_GE(greedy_makespan(tree, n), brute_force_tree_makespan(tree, n))
        << tree.describe() << " n=" << n;
  }
}

TEST(TreeExact, RejectsDegenerateInputs) {
  Tree empty;
  EXPECT_THROW(brute_force_tree_makespan(empty, 1), std::invalid_argument);
  const Tree tree = tree_from_chain(Chain::from_vectors({1}, {1}));
  EXPECT_THROW(brute_force_tree_makespan(tree, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mst
