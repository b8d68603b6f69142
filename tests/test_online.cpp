// Tests of the online dispatch policies on the simulator substrate.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "mst/baselines/forward_greedy.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"

namespace mst {
namespace {

TEST(Online, AllPoliciesCompleteEveryTask) {
  Rng rng(42);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 6, params);
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    const sim::SimResult r = sim::simulate_online(tree, 12, policy, 7);
    EXPECT_EQ(r.num_tasks(), 12u) << to_string(policy);
    std::size_t total = 0;
    for (std::size_t c : r.tasks_per_node) total += c;
    EXPECT_EQ(total, 12u) << to_string(policy);
    EXPECT_GT(r.makespan, 0) << to_string(policy);
  }
}

TEST(Online, PoliciesAreDeterministic) {
  Rng rng(43);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 5, params);
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    const sim::SimResult a = sim::simulate_online(tree, 9, policy, 3);
    const sim::SimResult b = sim::simulate_online(tree, 9, policy, 3);
    EXPECT_EQ(a.makespan, b.makespan) << to_string(policy);
  }
}

TEST(Online, RandomPolicyDependsOnSeed) {
  Rng rng(44);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 6, params);
  bool any_difference = false;
  for (std::uint64_t seed = 0; seed < 8 && !any_difference; ++seed) {
    const sim::SimResult a = sim::simulate_online(tree, 10, sim::OnlinePolicy::kRandom, seed);
    const sim::SimResult b =
        sim::simulate_online(tree, 10, sim::OnlinePolicy::kRandom, seed + 100);
    if (a.makespan != b.makespan) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Online, OnlinePoliciesNeverBeatTheOptimalPlanner) {
  // On spider-shaped trees the optimal offline makespan is computable; no
  // online policy may beat it.
  Rng rng(45);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const Spider spider = random_spider(inst, legs, 3, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Time optimal = SpiderScheduler::makespan(spider, n);
    const Tree tree = tree_from_spider(spider);
    for (sim::OnlinePolicy policy : sim::all_online_policies()) {
      const sim::SimResult r = sim::simulate_online(tree, n, policy, 11);
      EXPECT_GE(r.makespan, optimal)
          << to_string(policy) << " on " << spider.describe() << " n=" << n;
    }
  }
}

TEST(Online, EctMatchesForwardGreedyOnSpiders) {
  // The ECT policy with exact ASAP estimates is the online twin of the
  // forward-greedy baseline; on spiders both must coincide.
  Rng rng(46);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const Spider spider = random_spider(inst, legs, 3, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    const Time greedy = forward_greedy(spider, Workload::identical(n)).makespan();
    const sim::SimResult r = sim::simulate_online(
        tree_from_spider(spider), n, sim::OnlinePolicy::kEarliestCompletion, 0);
    EXPECT_EQ(r.makespan, greedy) << spider.describe() << " n=" << n;
  }
}

TEST(Online, SeedOnlyMattersForTheRandomPolicy) {
  // The header's determinism contract: JSQ/ECT/round-robin never read the
  // seed — their full timelines (not just makespans) are seed-invariant.
  Rng rng(47);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 6, params);
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    if (policy == sim::OnlinePolicy::kRandom) continue;
    const sim::SimResult baseline = sim::simulate_online(tree, 11, policy, 0);
    for (std::uint64_t seed : {1ull, 17ull, 0xDEADBEEFull}) {
      EXPECT_EQ(baseline, sim::simulate_online(tree, 11, policy, seed)) << to_string(policy);
    }
  }
}

TEST(Online, ScoreTiesBreakTowardTheSmallestSlaveIndex) {
  // Two identical slaves: every JSQ/ECT score ties at each decision, so
  // the documented contract pins the whole assignment — first task to node
  // 1, then strict alternation (the chosen slave's score rises).
  Tree tree;
  tree.add_node(0, {2, 3});
  tree.add_node(0, {2, 3});
  for (sim::OnlinePolicy policy :
       {sim::OnlinePolicy::kJoinShortestQueue, sim::OnlinePolicy::kEarliestCompletion}) {
    const sim::SimResult r = sim::simulate_online(tree, 5, policy, 0);
    EXPECT_EQ(r.tasks[0].dest, 1u) << to_string(policy);
    EXPECT_EQ(r.tasks_per_node[1], 3u) << to_string(policy);
    EXPECT_EQ(r.tasks_per_node[2], 2u) << to_string(policy);
  }
}

std::vector<NodeId> dests_of(const sim::SimResult& run) {
  std::vector<NodeId> dests;
  for (const sim::SimTask& task : run.tasks) dests.push_back(task.dest);
  return dests;
}

/// Sends task `i` to `dests[i]` and records what the driver shows it.
class RecordingPolicy final : public sim::StreamPolicy {
 public:
  explicit RecordingPolicy(std::vector<NodeId> dests) : dests_(std::move(dests)) {}
  void observe(const sim::StreamArrival&) override {}
  NodeId choose(std::size_t task, const sim::DispatchContext& ctx) override {
    seen.push_back(ctx.outstanding);
    return dests_[task];
  }

  std::vector<std::vector<std::size_t>> seen;

 private:
  std::vector<NodeId> dests_;
};

/// What `DispatchContext::outstanding` reads at each dispatch of `dests`.
std::vector<std::vector<std::size_t>> outstanding_seen(const Tree& tree, const Workload& workload,
                                                       const std::vector<NodeId>& dests) {
  RecordingPolicy policy(dests);
  (void)sim::drive_stream(tree, workload, policy);
  return policy.seen;
}

std::vector<std::vector<std::size_t>> outstanding_seen(const Tree& tree,
                                                       const std::vector<NodeId>& dests) {
  return outstanding_seen(tree, Workload::identical(dests.size()), dests);
}

TEST(Online, TaskEndingAtDispatchIsDoneIfItStartedBeforeThePreviousSend) {
  // Two (c 1, w 2) slaves.  Task 0 runs on node 1 over [1, 3]; task 2's
  // send began at 2, and its end at 3 dispatches task 3.  Task 0 started
  // before that send, so it no longer counts: one task outstanding on each
  // slave, the scores tie at 5 and task 3 goes to node 1.  Counting task 0
  // would send it to node 2.
  Tree tree;
  tree.add_node(0, {1, 2});
  tree.add_node(0, {1, 2});
  const sim::SimResult r = sim::simulate_online(tree, 4, sim::OnlinePolicy::kJoinShortestQueue);
  EXPECT_EQ(dests_of(r), (std::vector<NodeId>{1, 2, 1, 1}));
  EXPECT_EQ(r.tasks[0].start, 1);
  EXPECT_EQ(r.tasks[0].end, 3);
  EXPECT_EQ(r.tasks[2].master_emission, 2);
  EXPECT_EQ(r.tasks[3].master_emission, 3);
  EXPECT_EQ(outstanding_seen(tree, dests_of(r))[3], (std::vector<std::size_t>{0, 1, 1}));
}

TEST(Online, TaskEndingAtDispatchIsOutstandingIfItStartedAfterThePreviousSend) {
  // Node 1 (c 2, w 4) relays to node 2 (c 1, w 1).  Task 0 reaches node 2
  // at 3 and runs over [3, 4]; task 1's send began at 2, and its end at 4
  // dispatches task 2.  Task 0 started after that send, so it still counts:
  // two tasks outstanding on node 2, the scores tie at 6 and task 2 goes
  // to node 1.  Dropping task 0 would send it to node 2.
  Tree tree;
  tree.add_node(0, {2, 4});
  tree.add_node(1, {1, 1});
  const sim::SimResult r = sim::simulate_online(tree, 4, sim::OnlinePolicy::kJoinShortestQueue);
  EXPECT_EQ(dests_of(r), (std::vector<NodeId>{2, 2, 1, 2}));
  EXPECT_EQ(r.tasks[0].start, 3);
  EXPECT_EQ(r.tasks[0].end, 4);
  EXPECT_EQ(r.tasks[1].master_emission, 2);
  EXPECT_EQ(r.tasks[2].master_emission, 4);
  EXPECT_EQ(outstanding_seen(tree, dests_of(r))[2], (std::vector<std::size_t>{0, 0, 2}));
}

TEST(Online, TaskEndingAtDispatchIsDoneIfItStartedAtThePreviousSend) {
  // The equal case of the tie rule (`DispatchContext`).  Task 4 is
  // dispatched when task 3's first hop ends, at 10.  Task 1 ends on node 5
  // at that instant, and its execution started at 6, exactly when task 3's
  // send began.  It counts finished, so node 5 scores (0 + 1) * 4 + 4 = 8,
  // below node 4's and node 6's 9, and task 4 goes to node 5.  The event
  // loop settles that instant by how earlier events were queued: it counted
  // task 1 outstanding (node 5 scores 12) and sent task 4 to node 4.
  Tree tree;
  tree.add_node(0, {2, 4});  // 1
  tree.add_node(1, {1, 7});  // 2
  tree.add_node(2, {2, 4});  // 3
  tree.add_node(1, {1, 6});  // 4
  tree.add_node(4, {1, 4});  // 5
  tree.add_node(0, {1, 8});  // 6
  const Workload workload(5, {1, 1, 1, 2, 2}, {});
  const sim::SimResult r =
      sim::simulate_online(tree, workload, sim::OnlinePolicy::kJoinShortestQueue);
  EXPECT_EQ(dests_of(r), (std::vector<NodeId>{1, 5, 3, 1, 5}));
  EXPECT_EQ(r.tasks[1].start, r.tasks[3].master_emission);
  EXPECT_EQ(r.tasks[1].end, r.tasks[4].master_emission);
  EXPECT_EQ(outstanding_seen(tree, workload, dests_of(r))[4],
            (std::vector<std::size_t>{0, 1, 0, 1, 0, 0, 0}));
}

TEST(Online, PolicyChoicesCommuteWithSlaveRelabeling) {
  // Permutation invariance: on a tie-free fork, relabeling the slaves
  // relabels the assignment and nothing else — the policies depend on
  // (score, stable index), not on any hidden evaluation order.  Distinct
  // processors keep every score comparison strict, so the permuted run
  // must mirror the original exactly.
  // Tie-free by construction: the JSQ score progressions 4k+5, 10k+12 and
  // 25k+28 are pairwise disjoint for the outstanding counts a 9-task run
  // can reach, so every comparison is strict.
  Tree fork;
  fork.add_node(0, {1, 4});    // node 1
  fork.add_node(0, {2, 10});   // node 2
  fork.add_node(0, {3, 25});   // node 3
  Tree permuted;               // same slaves, reversed labels
  permuted.add_node(0, {3, 25});
  permuted.add_node(0, {2, 10});
  permuted.add_node(0, {1, 4});
  const NodeId perm[4] = {0, 3, 2, 1};  // fork node v  ->  permuted node
  {
    const sim::SimResult a = sim::simulate_online(fork, 9, sim::OnlinePolicy::kJoinShortestQueue, 0);
    const sim::SimResult b =
        sim::simulate_online(permuted, 9, sim::OnlinePolicy::kJoinShortestQueue, 0);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(perm[a.tasks[i].dest], b.tasks[i].dest) << "task " << i;
      EXPECT_EQ(a.tasks[i].end, b.tasks[i].end) << "task " << i;
    }
  }
  // ECT completion times can tie even here (port and processor frames
  // interleave), and ties break by label — so relabeling preserves the
  // timeline only up to tie-broken destinations: makespan and the per-task
  // end times must still match exactly.
  {
    const sim::SimResult a =
        sim::simulate_online(fork, 9, sim::OnlinePolicy::kEarliestCompletion, 0);
    const sim::SimResult b =
        sim::simulate_online(permuted, 9, sim::OnlinePolicy::kEarliestCompletion, 0);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].end, b.tasks[i].end) << "task " << i;
    }
  }
}

TEST(Online, JsqPrefersTheFastSlaveOnAsymmetricFork) {
  Tree tree;
  tree.add_node(0, {1, 1});    // fast
  tree.add_node(0, {1, 100});  // slow
  const sim::SimResult r =
      sim::simulate_online(tree, 10, sim::OnlinePolicy::kJoinShortestQueue, 0);
  EXPECT_GT(r.tasks_per_node[1], r.tasks_per_node[2]);
}

TEST(Online, RejectsTreesWithoutSlaves) {
  Tree empty;
  EXPECT_THROW(sim::simulate_online(empty, 3, sim::OnlinePolicy::kRoundRobin, 0),
               std::invalid_argument);
}

TEST(Online, PolicyNamesAreDistinct) {
  std::set<std::string> names;
  for (sim::OnlinePolicy policy : sim::all_online_policies()) names.insert(to_string(policy));
  EXPECT_EQ(names.size(), sim::all_online_policies().size());
}

}  // namespace
}  // namespace mst
