// Tests of the store-and-forward simulator and the static replay
// cross-validator.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mst/baselines/asap.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/static_replay.hpp"
#include "mst/workload/workload.hpp"

namespace mst {
namespace {

TEST(PlatformSim, SingleTaskTransitTime) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const Tree tree = tree_from_chain(chain);
  const sim::SimResult r = sim::simulate_dispatch(tree, {2});
  ASSERT_EQ(r.num_tasks(), 1u);
  EXPECT_EQ(r.tasks[0].master_emission, 0);
  EXPECT_EQ(r.tasks[0].arrival, 5);
  EXPECT_EQ(r.tasks[0].start, 5);
  EXPECT_EQ(r.tasks[0].end, 10);
  EXPECT_EQ(r.makespan, 10);
}

/// Random sizes in [1, 4] and/or bursty nondecreasing release dates.
Workload random_workload(Rng& rng, std::size_t n, bool sized, bool released) {
  std::vector<Time> sizes;
  std::vector<Time> release;
  Time t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sized) sizes.push_back(rng.uniform(1, 4));
    if (released) release.push_back(t += rng.uniform(0, 6));
  }
  return Workload(n, std::move(sizes), std::move(release));
}

/// The sized, release-dated and sized-and-released workloads of `n` tasks.
std::vector<Workload> uneven_workloads(Rng& rng, std::size_t n) {
  return {random_workload(rng, n, true, false), random_workload(rng, n, false, true),
          random_workload(rng, n, true, true)};
}

/// Every task of an ASAP schedule starts, and leaves the master, exactly
/// when the event simulator's does.
template <typename Schedule>
void expect_tasks_match(const Schedule& asap, const sim::SimResult& simulated,
                        const std::string& what) {
  ASSERT_EQ(asap.tasks.size(), simulated.tasks.size()) << what;
  for (std::size_t i = 0; i < asap.tasks.size(); ++i) {
    EXPECT_EQ(asap.tasks[i].start, simulated.tasks[i].start) << what << " task " << i;
    EXPECT_EQ(asap.tasks[i].emissions.front(), simulated.tasks[i].master_emission)
        << what << " task " << i;
  }
}

TEST(PlatformSim, MatchesAsapOnChainsForRandomSequences) {
  Rng rng(404);
  Rng draws(4040);  // workloads, apart so the platforms stay as they were
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 20; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    const Chain chain = random_chain(inst, p, params);
    std::vector<std::size_t> dests(n);
    std::vector<NodeId> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      dests[i] = static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(p) - 1));
      nodes[i] = dests[i] + 1;  // tree node ids are 1-based along the chain
    }
    const Time asap = asap_chain_schedule(chain, dests, Workload::identical(n)).makespan();
    const sim::SimResult sim_result = sim::simulate_dispatch(tree_from_chain(chain), nodes);
    EXPECT_EQ(sim_result.makespan, asap) << chain.describe() << " trial " << trial;
    for (const Workload& workload : uneven_workloads(draws, n)) {
      expect_tasks_match(asap_chain_schedule(chain, dests, workload),
                         sim::simulate_dispatch(tree_from_chain(chain), nodes, workload),
                         chain.describe() + " trial " + std::to_string(trial));
    }
  }
}

TEST(PlatformSim, MatchesAsapOnSpiders) {
  Rng rng(505);
  Rng draws(5050);  // workloads, apart so the platforms stay as they were
  GeneratorParams params{1, 7, PlatformClass::kUniform};
  for (int trial = 0; trial < 15; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const Spider spider = random_spider(inst, legs, 3, params);
    const Tree tree = tree_from_spider(spider);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    std::vector<SpiderDest> dests(n);
    std::vector<NodeId> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto l = static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(legs) - 1));
      const auto q = static_cast<std::size_t>(
          rng.uniform(0, static_cast<Time>(spider.leg(l).size()) - 1));
      dests[i] = {l, q};
      nodes[i] = spider_node(spider, {l, q});
    }
    const Time asap = asap_spider_schedule(spider, dests, Workload::identical(n)).makespan();
    const sim::SimResult sim_result = sim::simulate_dispatch(tree, nodes);
    EXPECT_EQ(sim_result.makespan, asap) << spider.describe() << " trial " << trial;
    for (const Workload& workload : uneven_workloads(draws, n)) {
      expect_tasks_match(asap_spider_schedule(spider, dests, workload),
                         sim::simulate_dispatch(tree, nodes, workload),
                         spider.describe() + " trial " + std::to_string(trial));
    }
  }
}

TEST(PlatformSim, CountsTasksPerNode) {
  const Chain chain = Chain::from_vectors({1, 1}, {2, 2});
  const sim::SimResult r = sim::simulate_dispatch(tree_from_chain(chain), {1, 2, 1});
  EXPECT_EQ(r.tasks_per_node[1], 2u);
  EXPECT_EQ(r.tasks_per_node[2], 1u);
}

TEST(PlatformSim, RejectsMasterAsDestination) {
  const Chain chain = Chain::from_vectors({1}, {1});
  EXPECT_THROW(sim::simulate_dispatch(tree_from_chain(chain), {0}),
               std::invalid_argument);
}

TEST(StaticReplay, AcceptsOptimalChainSchedules) {
  Rng rng(606);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 15; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const ChainSchedule s = ChainScheduler::schedule(chain, n);
    const sim::ReplayResult r = sim::replay(s);
    ASSERT_TRUE(r.ok) << chain.describe();
    EXPECT_EQ(r.makespan, s.makespan());
  }
}

// The broken-schedule cases pin `conflicts` whole: every string and its
// order (events fire in time order, ties in scheduling order; per task the
// negative-time and store-and-forward checks come first, at scheduling).

using Conflicts = std::vector<std::string>;

TEST(StaticReplay, DetectsLinkConflict) {
  const Chain chain = Chain::from_vectors({2}, {3});
  ChainSchedule bad{chain, {ChainTask{0, 2, {0}}, ChainTask{0, 5, {1}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.conflicts, Conflicts{"link 0: task 1 claims at 1 but resource is busy until 2"});
}

TEST(StaticReplay, DetectsEarlyStart) {
  const Chain chain = Chain::from_vectors({2}, {3});
  ChainSchedule bad{chain, {ChainTask{0, 1, {0}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.conflicts, Conflicts{"proc 0: task 0 starts at 1 before its arrival at 2"});
}

TEST(StaticReplay, DetectsProcessorConflict) {
  const Chain chain = Chain::from_vectors({1, 1}, {5, 5});
  ChainSchedule bad{chain, {ChainTask{0, 2, {0}}, ChainTask{0, 4, {1}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.conflicts, Conflicts{"proc 0: task 1 claims at 4 but resource is busy until 7"});
}

TEST(StaticReplay, DetectsNegativeTimes) {
  const Chain chain = Chain::from_vectors({2}, {3});
  ChainSchedule bad{chain, {ChainTask{0, 2, {-1}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.conflicts, Conflicts{"emission of task 0 is negative (-1)"});
}

TEST(StaticReplay, DetectsSpiderMasterConflict) {
  const Spider spider{Chain::from_vectors({3}, {1}), Chain::from_vectors({3}, {1})};
  SpiderSchedule bad{spider, {SpiderTask{0, 0, 3, {0}}, SpiderTask{1, 0, 4, {1}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.conflicts,
            Conflicts{"master port: task 1 claims at 1 but resource is busy until 3"});
}

TEST(StaticReplay, ReportsEveryChainConflictInOrder) {
  // A busy link and processor, starts before arrival, negative times (fired
  // at 0) and a forward before its reception completes.
  const Chain chain = Chain::from_vectors({2, 1}, {3, 4});
  ChainSchedule bad{chain,
                    {ChainTask{1, 3, {0, 2}}, ChainTask{1, 5, {1, 4}}, ChainTask{0, 4, {3}},
                     ChainTask{0, -2, {-1}}, ChainTask{1, 8, {6, 7}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.makespan, 12);
  EXPECT_EQ(r.conflicts,
            (Conflicts{"start of task 3 is negative (-2)",
                       "emission of task 3 is negative (-1)",
                       "task 4 forwarded on link 1 at 7 before its reception completes at 8",
                       "link 0: task 3 claims at 0 but resource is busy until 2",
                       "proc 0: task 3 starts at 0 before its arrival at 1",
                       "link 0: task 1 claims at 1 but resource is busy until 2",
                       "proc 0: task 2 starts at 4 before its arrival at 5",
                       "proc 1: task 1 claims at 5 but resource is busy until 7",
                       "proc 1: task 4 claims at 8 but resource is busy until 9"}));
}

TEST(StaticReplay, ReportsEverySpiderConflictInOrder) {
  // The master port claimed by two legs, a busy link and processor, a start
  // before arrival, negative times (fired at 0) and a forward before its
  // reception completes; a task claims the master port before its leg's
  // links.
  const Spider spider{Chain::from_vectors({2, 1}, {3, 4}), Chain::from_vectors({3}, {2})};
  SpiderSchedule bad{spider,
                     {SpiderTask{0, 1, 3, {0, 2}}, SpiderTask{1, 0, 4, {1}},
                      SpiderTask{0, 0, 5, {4}}, SpiderTask{0, 1, 7, {5, 6}},
                      SpiderTask{1, 0, -1, {-3}}, SpiderTask{0, 1, 10, {7, 9}}}};
  const sim::ReplayResult r = sim::replay(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.makespan, 14);
  EXPECT_EQ(r.conflicts,
            (Conflicts{"task 3 forwarded on link 1 at 6 before its reception completes at 7",
                       "start of task 4 is negative (-1)",
                       "emission of task 4 is negative (-3)",
                       "master port: task 4 claims at 0 but resource is busy until 2",
                       "master port: task 1 claims at 1 but resource is busy until 3",
                       "leg 1 link 0: task 1 claims at 1 but resource is busy until 3",
                       "leg 0 proc 0: task 2 starts at 5 before its arrival at 6",
                       "master port: task 3 claims at 5 but resource is busy until 6",
                       "leg 0 link 0: task 3 claims at 5 but resource is busy until 6",
                       "leg 0 proc 1: task 5 claims at 10 but resource is busy until 11"}));
}

}  // namespace
}  // namespace mst
