// Streaming driver: no-lookahead dispatch where `n` is unknown.
//
// The contracts under test, in order:
//  * each adapted online policy reproduces `simulate_online` bit for bit
//    (identical workloads and released streams alike);
//  * the horizon re-planner degenerates to the exact offline optimum when
//    every task is available at time 0, and never beats that optimum on a
//    genuine arrival stream (regret >= 1);
//  * the driver itself enforces no-lookahead: a policy only ever sees
//    arrivals whose release dates have passed, so changing the tail of a
//    workload cannot change any decision taken before the tail arrives;
//  * the streaming metrics (latency, backlog, regret) are exact, and the
//    registry bridge rejects non-streaming entries and unsupported
//    workloads up front.

#include <gtest/gtest.h>

#include <initializer_list>

#include "mst/api/registry.hpp"
#include "mst/api/stream.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/arrival.hpp"

namespace mst {
namespace {

TEST(Streaming, AdaptedPoliciesMatchSimulateOnlineBitForBit) {
  Rng rng(7);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, 2 + static_cast<std::size_t>(trial), params);
    for (const Workload& workload :
         {Workload::identical(11), Workload::released({0, 0, 3, 7, 7, 12, 30, 31}),
          Workload(6, {1, 1, 2, 2, 3, 4}, {0, 2, 2, 9, 9, 15})}) {
      for (sim::OnlinePolicy policy : sim::all_online_policies()) {
        const sim::SimResult online = sim::simulate_online(tree, workload, policy, 42);
        const std::unique_ptr<sim::StreamPolicy> stream_policy =
            sim::make_stream_policy(tree, policy, 42);
        const sim::StreamResult stream = sim::simulate_stream(tree, workload, *stream_policy);
        // The whole timeline, task for task — not just the makespan.
        EXPECT_EQ(online, stream.sim) << to_string(policy) << " on " << workload.describe();
      }
    }
  }
}

TEST(Streaming, ReplanReproducesTheOfflineOptimumWhenAllTasksAreAvailable) {
  // With everything released at 0 the single plan is the offline optimal
  // schedule, and replaying its destination sequence operationally must
  // reproduce the optimal makespan exactly.  Exhaustive tiny chains first.
  for (Time c1 : {1, 2, 3}) {
    for (Time w1 : {1, 2, 3}) {
      for (Time c2 : {1, 2, 3}) {
        for (Time w2 : {1, 2, 3}) {
          const Chain chain = Chain::from_vectors({c1, c2}, {w1, w2});
          for (std::size_t n = 1; n <= 5; ++n) {
            const api::StreamOutcome run =
                api::run_stream(chain, "replan", Workload::identical(n));
            EXPECT_EQ(run.makespan, ChainScheduler::makespan(chain, n))
                << chain.describe() << " n=" << n;
            EXPECT_EQ(run.offline_makespan, run.makespan);
            EXPECT_DOUBLE_EQ(run.regret, 1.0);
          }
        }
      }
    }
  }
  // Random forks and spiders against their exact solvers.
  Rng rng(11);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto n = static_cast<std::size_t>(rng.uniform(1, 9));
    const Fork fork = random_fork(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    EXPECT_EQ(api::run_stream(fork, "replan", Workload::identical(n)).makespan,
              SpiderScheduler::makespan(Spider::from_fork(fork), n))
        << fork.describe() << " n=" << n;
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 3)), 3, params);
    EXPECT_EQ(api::run_stream(spider, "replan", Workload::identical(n)).makespan,
              SpiderScheduler::makespan(spider, n))
        << spider.describe() << " n=" << n;
  }
}

TEST(Streaming, ReplanNeverBeatsTheOfflineOptimumOnArrivalStreams) {
  // The streamed execution is a feasible schedule of the released workload,
  // so every exact offline optimum is a hard floor: regret >= 1 wherever a
  // reference exists.  Chains keep their (exact) released reference; fork
  // and spider streams report the sentinel — their positional-release
  // selection is beatable, so regret against it would be meaningless — but
  // the release-free optimum of the same task count still bounds them from
  // below (releases only constrain).
  Rng rng(13);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  WorkloadGen poisson;
  poisson.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, 4, 0};
  WorkloadGen bursts;
  bursts.arrival = ArrivalDist{ArrivalDist::Kind::kBursts, 3, 9};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const std::size_t n = 4 + static_cast<std::size_t>(rng.uniform(0, 8));
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const Fork fork = random_fork(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 3)), 3, params);
    for (const WorkloadGen& gen : {poisson, bursts}) {
      const Workload workload = gen.make(n, rng.next_u64());
      {
        const api::StreamOutcome run = api::run_stream(chain, "replan", workload);
        ASSERT_GT(run.offline_makespan, 0) << chain.describe();
        EXPECT_EQ(run.offline_makespan, ChainScheduler::schedule(chain, workload).makespan());
        EXPECT_GE(run.makespan, run.offline_makespan)
            << chain.describe() << " on " << workload.describe();
        EXPECT_GE(run.regret, 1.0);
        // tasks/makespan vs tasks/offline: the online/offline throughput
        // ratio is regret inverted, so it sits at or below 1.
        EXPECT_LE(run.throughput() * static_cast<double>(run.offline_makespan) /
                      static_cast<double>(run.tasks),
                  1.0 + 1e-12);
      }
      {
        const api::StreamOutcome run = api::run_stream(fork, "replan", workload);
        EXPECT_EQ(run.offline_makespan, 0) << "beatable reference must not be reported";
        EXPECT_LT(run.regret, 0.0);
        EXPECT_GE(run.makespan, SpiderScheduler::makespan(Spider::from_fork(fork), n))
            << fork.describe();
      }
      {
        const api::StreamOutcome run = api::run_stream(spider, "replan", workload);
        EXPECT_EQ(run.offline_makespan, 0);
        EXPECT_LT(run.regret, 0.0);
        EXPECT_GE(run.makespan, SpiderScheduler::makespan(spider, n)) << spider.describe();
      }
    }
  }
}

/// A policy that audits every fact the driver shows it.
class ProbePolicy final : public sim::StreamPolicy {
 public:
  void observe(const sim::StreamArrival& arrival) override {
    // Arrival order is canonical order, one at a time, no duplicates.
    EXPECT_EQ(arrival.task, observed.size());
    observed.push_back(arrival);
  }
  NodeId choose(std::size_t task, const sim::DispatchContext& ctx) override {
    // The dispatched task has arrived, and nothing the policy ever saw lies
    // in the future: the driver reveals the arrived prefix, nothing more.
    EXPECT_LT(task, observed.size());
    for (const sim::StreamArrival& arrival : observed) EXPECT_LE(arrival.release, ctx.now);
    return 1;
  }

  std::vector<sim::StreamArrival> observed;
};

TEST(Streaming, DriverRevealsExactlyTheArrivedPrefix) {
  Tree tree;
  tree.add_node(0, {1, 2});
  tree.add_node(0, {2, 3});
  const Workload workload(5, {1, 1, 2, 1, 3}, {0, 2, 2, 11, 25});
  ProbePolicy probe;
  const sim::StreamResult run = sim::simulate_stream(tree, workload, probe);
  ASSERT_EQ(probe.observed.size(), workload.count());
  for (std::size_t i = 0; i < workload.count(); ++i) {
    EXPECT_EQ(probe.observed[i].size, workload.size_of(i));
    EXPECT_EQ(probe.observed[i].release, workload.release_of(i));
  }
  EXPECT_EQ(run.sim.num_tasks(), workload.count());
}

TEST(Streaming, TailChangesCannotAffectEarlierDecisions) {
  // Two workloads identical up to task 3; the tail release differs.  Every
  // decision taken before the tail arrives — and therefore the first three
  // tasks' complete timelines — must be identical.  A clairvoyant policy
  // could not satisfy this; a no-lookahead one cannot violate it.
  Rng rng(17);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 5, params);
  const Workload near(4, {}, {0, 1, 3, 40});
  const Workload far(4, {}, {0, 1, 3, 900});
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    const std::unique_ptr<sim::StreamPolicy> a = sim::make_stream_policy(tree, policy, 5);
    const std::unique_ptr<sim::StreamPolicy> b = sim::make_stream_policy(tree, policy, 5);
    const sim::StreamResult run_near = sim::simulate_stream(tree, near, *a);
    const sim::StreamResult run_far = sim::simulate_stream(tree, far, *b);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(run_near.sim.tasks[i], run_far.sim.tasks[i]) << to_string(policy) << " task " << i;
    }
  }
  // The re-planner, too, on its chain substrate.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const Tree substrate = sim::stream_substrate(chain);
  const std::unique_ptr<sim::StreamPolicy> a = sim::make_replan_policy(chain);
  const std::unique_ptr<sim::StreamPolicy> b = sim::make_replan_policy(chain);
  const sim::StreamResult run_near = sim::simulate_stream(substrate, near, *a);
  const sim::StreamResult run_far = sim::simulate_stream(substrate, far, *b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(run_near.sim.tasks[i], run_far.sim.tasks[i]);
}

TEST(Streaming, MetricsAreExactOnHandComputableInstances) {
  // Single slave, c=1, w=2.  Staggered stream {0, 10}: each task sojourns
  // for exactly 3 (1 hop + 2 execution), the backlog never exceeds 1.
  Tree tree;
  tree.add_node(0, {1, 2});
  {
    const std::unique_ptr<sim::StreamPolicy> policy =
        sim::make_stream_policy(tree, sim::OnlinePolicy::kRoundRobin);
    const sim::StreamResult run =
        sim::simulate_stream(tree, Workload::released({0, 10}), *policy);
    EXPECT_EQ(run.sim.makespan, 13);
    EXPECT_EQ(run.metrics.latency, (std::vector<Time>{3, 3}));
    EXPECT_DOUBLE_EQ(run.metrics.mean_latency, 3.0);
    EXPECT_EQ(run.metrics.max_latency, 3);
    EXPECT_EQ(run.metrics.peak_backlog, 1u);
  }
  // A burst of three at time 0: emissions serialize on the out-port, the
  // processor queues the rest — latencies 3, 5, 7 and a full backlog of 3.
  {
    const std::unique_ptr<sim::StreamPolicy> policy =
        sim::make_stream_policy(tree, sim::OnlinePolicy::kRoundRobin);
    const sim::StreamResult run =
        sim::simulate_stream(tree, Workload::identical(3), *policy);
    EXPECT_EQ(run.sim.makespan, 7);
    EXPECT_EQ(run.metrics.latency, (std::vector<Time>{3, 5, 7}));
    EXPECT_DOUBLE_EQ(run.metrics.mean_latency, 5.0);
    EXPECT_EQ(run.metrics.max_latency, 7);
    EXPECT_EQ(run.metrics.peak_backlog, 3u);
  }
}

TEST(Streaming, RunStreamRejectsUnsupportedRequestsUpFront) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  // Not streaming-capable (the exact planner needs the whole instance).
  EXPECT_THROW((void)api::run_stream(chain, "optimal", Workload::identical(4)),
               std::invalid_argument);
  // Unknown name.
  EXPECT_THROW((void)api::run_stream(chain, "no-such-algorithm", Workload::identical(4)),
               std::invalid_argument);
  // The re-planner's exact solvers do not cover non-uniform sizes.
  EXPECT_THROW((void)api::run_stream(chain, "replan", Workload(3, {1, 2, 3}, {})),
               std::invalid_argument);
  // No exact tree solver to re-plan with.
  Tree tree;
  tree.add_node(0, {1, 1});
  EXPECT_THROW((void)sim::make_replan_policy(api::Platform{tree}), std::invalid_argument);
}

TEST(Streaming, RegistryReplanEntrySolvesAndPassesFeasibility) {
  // "replan" is a full registry citizen: its makespan form is the streaming
  // simulation of the release stream, materialized as a dispatch plan that
  // the feasibility checker replays.
  const Workload workload = Workload::released({0, 0, 4, 9, 9, 20});
  for (const api::Platform& platform :
       {api::Platform{Chain::from_vectors({2, 3}, {3, 5})},
        api::Platform{Fork{{1, 3}, {2, 2}, {4, 5}}},
        api::Platform{Spider{Chain::from_vectors({2, 3}, {3, 5}),
                             Chain::from_vectors({4}, {2})}}}) {
    const api::SolveResult result =
        api::registry().solve(platform, "replan", workload);
    EXPECT_EQ(result.tasks, workload.count());
    const FeasibilityReport report = api::check_feasibility(result);
    EXPECT_TRUE(report.ok()) << api::describe(platform) << ": " << report.summary();
    const api::StreamOutcome direct = api::run_stream(platform, "replan", workload);
    EXPECT_EQ(result.makespan, direct.makespan) << api::describe(platform);
    // The registry gate mirrors run_stream's: capability checked up front.
    const api::AlgorithmInfo* info =
        api::registry().info(api::kind_of(platform), "replan");
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->supports.streaming);
    EXPECT_FALSE(info->supports.sizes);
  }
}

TEST(Streaming, EveryStreamingCapableEntryResolvesToAPolicy) {
  // The capability flag lives in registry.cpp, the name-to-policy mapping
  // in streaming.cpp; this pins the two files together so a future
  // streaming-capable entry cannot pass the up-front gate and then die in
  // the driver's unknown-name fallback.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  Tree tree;
  tree.add_node(0, {1, 2});
  tree.add_node(0, {2, 3});
  std::size_t streaming_entries = 0;
  for (const api::AlgorithmInfo& info : api::registry().list()) {
    if (!info.supports.streaming) continue;
    ++streaming_entries;
    const api::Platform platform =
        info.kind == api::PlatformKind::kChain   ? api::Platform{chain}
        : info.kind == api::PlatformKind::kFork  ? api::Platform{Fork{{1, 3}, {2, 2}}}
        : info.kind == api::PlatformKind::kSpider
            ? api::Platform{Spider{Chain::from_vectors({2}, {3})}}
            : api::Platform{tree};
    EXPECT_NO_THROW((void)api::run_stream(platform, info.name, Workload::identical(2)))
        << to_string(info.kind) << "/" << info.name;
  }
  // 3 replan entries + 4 tree online policies today; growth is fine, the
  // loop covers whatever registers.
  EXPECT_GE(streaming_entries, 7u);
}

TEST(Streaming, SubstrateEmbeddingsPreserveSlaveNumbering) {
  // chain processor i -> node i+1; fork slave s -> node s+1; spider leg l
  // depth d -> 1 + sum(len of legs < l) + d.  The re-planner's node mapping
  // rests on this.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const Tree from_chain = sim::stream_substrate(chain);
  ASSERT_EQ(from_chain.num_slaves(), 2u);
  EXPECT_EQ(from_chain.proc(1).work, chain.proc(0).work);
  EXPECT_EQ(from_chain.proc(2).work, chain.proc(1).work);
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const Tree from_spider = sim::stream_substrate(spider);
  ASSERT_EQ(from_spider.num_slaves(), 3u);
  EXPECT_EQ(from_spider.proc(1).work, spider.leg(0).proc(0).work);
  EXPECT_EQ(from_spider.proc(2).work, spider.leg(0).proc(1).work);
  EXPECT_EQ(from_spider.proc(3).work, spider.leg(1).proc(0).work);
}

}  // namespace
}  // namespace mst
