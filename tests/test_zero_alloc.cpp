// Dynamic half of the zero-alloc contract for the simulator substrate: the
// statically-checked mstlint zero-alloc region of platform_sim.cpp (the
// event loop and its handlers) bans allocating constructs at the token
// level; these tests pin the actual runtime behaviour with the shared
// global-allocation probe.
//
// The streaming driver's whole-run allocation *count* is independent of the
// task count: the event loop's per-task cost is zero, everything that does
// allocate is per-run or per-node setup.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/observation.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"
#include "support/alloc_probe.hpp"

namespace mst {
namespace {

/// Total allocations of one full streaming run (policy and workload are
/// built outside the probed window; the run itself is driver + simulator +
/// metrics).
long stream_allocations(std::size_t n, obs::MetricsRegistry* metrics = nullptr) {
  Rng rng(99);
  const Tree tree = random_tree(rng, 12, {1, 9, PlatformClass::kUniform});
  const auto policy = sim::make_stream_policy(tree, sim::OnlinePolicy::kRoundRobin);
  const Workload workload = Workload::identical(n);

  alloc_probe::Scope probe;
  const sim::StreamResult result =
      sim::simulate_stream(tree, workload, *policy, obs::Observation{metrics, nullptr});
  EXPECT_EQ(result.sim.tasks.size(), n);
  return probe.count();
}

TEST(StreamingZeroAlloc, RunAllocationCountIndependentOfTaskCount) {
  const long small = stream_allocations(256);
  const long large = stream_allocations(2048);
  // Setup (result arrays, route cache, event heap, metrics vector) may
  // allocate; the steady-state loop may not — so 8x the tasks must not add
  // a single extra allocation.
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
}

TEST(StreamingZeroAlloc, MetricsAttachedRunAllocatesNothingExtra) {
  // The observability contract end to end: with a metrics registry attached
  // the driver registers into fixed slots and updates atomics, so the run's
  // allocation count neither grows with the task count nor exceeds the
  // uninstrumented run's.
  obs::MetricsRegistry registry;
  const long small = stream_allocations(256, &registry);
  const long large = stream_allocations(2048, &registry);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
  EXPECT_EQ(small, stream_allocations(256));

  const std::vector<obs::MetricSample> samples = registry.snapshot();
  EXPECT_FALSE(samples.empty());
  for (const obs::MetricSample& sample : samples) {
    if (sample.name == "stream.arrivals") {
      EXPECT_EQ(sample.value, 256 + 2048);
    }
  }
}

/// Allocations of one *materialized* solve on a warm `api::SolveScratch`:
/// two warm-up solves size every pool (schedule payloads included — each is
/// recycled back into the scratch, the consumer half of the contract), then
/// the third solve runs under the probe.
long solve_allocations(const api::Platform& platform, const char* algorithm, std::size_t n) {
  const api::Registry& registry = api::registry();
  api::SolveScratch scratch;
  api::SolveOptions options;
  options.materialize = true;
  options.scratch = &scratch;
  for (int warm = 0; warm < 2; ++warm) {
    scratch.recycle(registry.solve(platform, algorithm, n, options));
  }

  alloc_probe::Scope probe;
  api::SolveResult result = registry.solve(platform, algorithm, n, options);
  const long count = probe.count();
  EXPECT_EQ(result.tasks, n);
  scratch.recycle(std::move(result));
  return count;
}

/// Allocations of one materialized decision-form solve on a warm
/// `api::SolveScratch`, warmed up like `solve_allocations`.
long decision_allocations(const api::Platform& platform, const char* algorithm, Time deadline) {
  const api::Registry& registry = api::registry();
  api::SolveScratch scratch;
  api::SolveOptions options;
  options.materialize = true;
  options.scratch = &scratch;
  for (int warm = 0; warm < 2; ++warm) {
    scratch.recycle(registry.solve_within(platform, algorithm, deadline, options));
  }

  alloc_probe::Scope probe;
  api::DecisionResult result = registry.solve_within(platform, algorithm, deadline, options);
  const long count = probe.count();
  EXPECT_GT(result.tasks, 0u);
  scratch.recycle(std::move(result));
  return count;
}

TEST(SolveZeroAlloc, MaterializedOptimalSolvesAreAllocationFree) {
  // The tentpole claim: with a warm scratch, a full schedule-producing
  // solve on each closed-form platform allocates nothing — the plan is
  // rebuilt in place inside recycled pool capacity.
  Rng rng(7);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform chain(random_chain(rng, 12, params));
  const api::Platform fork(random_fork(rng, 12, params));
  const api::Platform spider(random_spider(rng, 6, 3, params));
  EXPECT_EQ(solve_allocations(chain, "optimal", 300), 0) << "chain";
  EXPECT_EQ(solve_allocations(fork, "optimal", 300), 0) << "fork";
  EXPECT_EQ(solve_allocations(fork, "greedy", 300), 0) << "fork greedy";
  EXPECT_EQ(solve_allocations(spider, "optimal", 300), 0) << "spider";
}

TEST(SolveZeroAlloc, ScratchSolvesMatchPlainSolvesExactly) {
  // The scratch paths are alternative *materializations*, not alternative
  // algorithms: every field of the result — schedule payload included —
  // must be bit-identical to the scratch-free solve.
  const api::Registry& registry = api::registry();
  Rng rng(21);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform platforms[] = {
      api::Platform(random_chain(rng, 9, params)),
      api::Platform(random_fork(rng, 9, params)),
      api::Platform(random_spider(rng, 5, 4, params)),
  };
  api::SolveScratch scratch;
  for (const api::Platform& platform : platforms) {
    for (const std::size_t n : {1u, 17u, 256u}) {
      api::SolveOptions plain_options;
      plain_options.materialize = true;
      const api::SolveResult plain = registry.solve(platform, "optimal", n, plain_options);

      api::SolveOptions scratch_options = plain_options;
      scratch_options.scratch = &scratch;
      api::SolveResult pooled = registry.solve(platform, "optimal", n, scratch_options);

      EXPECT_EQ(pooled.makespan, plain.makespan);
      EXPECT_EQ(pooled.lower_bound, plain.lower_bound);
      EXPECT_EQ(pooled.tasks, plain.tasks);
      EXPECT_EQ(pooled.schedule == plain.schedule, true);
      scratch.recycle(std::move(pooled));
    }
  }
}

TEST(SolveZeroAlloc, TreeHeuristicAllocationCountIndependentOfTaskCount) {
  // The cover builds tree-shaped state per solve; the contract is the
  // streaming one — the allocation count is per-*tree*, never per-task.
  // (The greedy and the local search keep their engine state in the
  // scratch: see the next tests.)
  Rng rng(33);
  const api::Platform tree(random_tree(rng, 10, {1, 9, PlatformClass::kUniform}));
  for (const char* algorithm : {"spider-cover", "forward-greedy"}) {
    const long small = solve_allocations(tree, algorithm, 256);
    const long large = solve_allocations(tree, algorithm, 2048);
    EXPECT_EQ(small, large) << algorithm;
  }
  // Local search swaps are O(n^2) re-evaluations — same contract, smaller n.
  const long small = solve_allocations(tree, "local-search", 24);
  const long large = solve_allocations(tree, "local-search", 48);
  EXPECT_EQ(small, large) << "local-search";
}

TEST(SolveZeroAlloc, WarmLocalSearchSolveIsAllocationFree) {
  // The local search keeps its engine state, prefix snapshots and bounds in
  // the scratch, so a warm solve on the same tree allocates nothing.
  Rng rng(34);
  const api::Platform tree(random_tree(rng, 10, {1, 9, PlatformClass::kUniform}));
  EXPECT_EQ(solve_allocations(tree, "local-search", 48), 0);
}

TEST(SolveZeroAlloc, WarmForwardGreedySolveIsAllocationFree) {
  // The tree forward-greedy assigns the scratch's engine state in place, so
  // a warm solve on the same tree allocates nothing — in makespan form, and
  // in decision form, one greedy run stopped at the deadline.
  Rng rng(35);
  const api::Platform tree(random_tree(rng, 10, {1, 9, PlatformClass::kUniform}));
  EXPECT_EQ(solve_allocations(tree, "forward-greedy", 48), 0);
  EXPECT_EQ(decision_allocations(tree, "forward-greedy", 200), 0);
}

TEST(SolveZeroAlloc, WarmEngineBaselineSolvesAreAllocationFree) {
  // The chain, fork and spider engine baselines replay on the scratch's
  // engine state into the pooled schedule (a fork's unit-leg spider is
  // rebuilt in place in the scratch), so a warm solve allocates nothing at
  // any task count.  The chain's `periodic` rebuilds its rates and counts
  // in the scratch too.
  Rng rng(37);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform chain(random_chain(rng, 8, params));
  const api::Platform fork(random_fork(rng, 8, params));
  const api::Platform spider(random_spider(rng, 4, 3, params));
  for (const char* algorithm : {"forward-greedy", "round-robin", "single-node"}) {
    for (const std::size_t n : {8u, 64u, 512u}) {
      EXPECT_EQ(solve_allocations(chain, algorithm, n), 0) << "chain " << algorithm << " " << n;
      EXPECT_EQ(solve_allocations(fork, algorithm, n), 0) << "fork " << algorithm << " " << n;
      EXPECT_EQ(solve_allocations(spider, algorithm, n), 0) << "spider " << algorithm << " " << n;
    }
  }
  for (const std::size_t n : {8u, 64u, 512u}) {
    EXPECT_EQ(solve_allocations(chain, "periodic", n), 0) << "chain periodic " << n;
  }
}

TEST(SolveZeroAlloc, WarmEngineBaselineDecisionsAreAllocationFree) {
  // The prefix-stable engine baselines, the chain's `periodic` among them,
  // decide in one deadline-stopped replay that grows the pooled schedule
  // only by the tasks it keeps, so a warm decision allocates nothing,
  // whatever the cap (2^20 by default).
  Rng rng(38);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform chain(random_chain(rng, 8, params));
  const api::Platform fork(random_fork(rng, 8, params));
  const api::Platform spider(random_spider(rng, 4, 3, params));
  for (const char* algorithm : {"forward-greedy", "round-robin"}) {
    for (const Time deadline : {40, 400}) {
      EXPECT_EQ(decision_allocations(chain, algorithm, deadline), 0)
          << "chain " << algorithm << " " << deadline;
      EXPECT_EQ(decision_allocations(fork, algorithm, deadline), 0)
          << "fork " << algorithm << " " << deadline;
      EXPECT_EQ(decision_allocations(spider, algorithm, deadline), 0)
          << "spider " << algorithm << " " << deadline;
    }
  }
  for (const Time deadline : {40, 400}) {
    EXPECT_EQ(decision_allocations(chain, "periodic", deadline), 0)
        << "chain periodic " << deadline;
  }
}

TEST(SolveZeroAlloc, SingleNodeAllocationCountIndependentOfProcessorCount) {
  // single-node scores every candidate node by engine commits on one state
  // and builds only the winner's schedule, so a warm solve allocates as
  // much on 16 processors as on 4.
  Rng rng(36);
  const GeneratorParams params{1, 10, PlatformClass::kUniform};
  const api::Platform small(random_chain(rng, 4, params));
  const api::Platform large(random_chain(rng, 16, params));
  EXPECT_EQ(solve_allocations(small, "single-node", 64),
            solve_allocations(large, "single-node", 64));
}

/// Allocations of one check of a feasible library schedule, built outside
/// the probed window.
template <class Schedule>
long check_allocations(const Schedule& schedule) {
  alloc_probe::Scope probe;
  const FeasibilityReport report = check_feasibility(schedule);
  const long count = probe.count();
  EXPECT_TRUE(report.ok()) << report.summary();
  return count;
}

TEST(CheckZeroAlloc, FeasibleCheckAllocationCountIndependentOfSize) {
  // The checker's buffers (node offsets, task errors, bucket offsets, the
  // interval array, per-leg counters and message lists) are a fixed set per
  // call, and a feasible schedule formats no text: 16 times the processors
  // and tasks add no allocation.
  Rng rng(10);
  const GeneratorParams params{4, 8, PlatformClass::kUniform};
  const long small_chain =
      check_allocations(ChainScheduler::schedule(random_chain(rng, 16, params), 64));
  const long large_chain =
      check_allocations(ChainScheduler::schedule(random_chain(rng, 256, params), 1024));
  EXPECT_GT(small_chain, 0);
  EXPECT_EQ(small_chain, large_chain);
  const long small_spider =
      check_allocations(SpiderScheduler::schedule(random_spider(rng, 4, 4, 4, params), 64));
  const long large_spider =
      check_allocations(SpiderScheduler::schedule(random_spider(rng, 16, 16, 16, params), 1024));
  EXPECT_GT(small_spider, 0);
  EXPECT_EQ(small_spider, large_spider);
}

}  // namespace
}  // namespace mst
