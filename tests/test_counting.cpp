// Allocation-free counting paths: the count-only decision forms must agree
// exactly with the materializing constructions, and — after a warm-up call
// that sizes the scratch buffers — perform zero heap allocations.  The
// sweep runner's `materialize=false` hot path depends on both properties.
//
// The shared probe (tests/support/alloc_probe.hpp) replaces the global
// allocation functions with counting wrappers; the counters only matter
// between `arm()` and `allocations()`, so the GTest machinery's own
// allocations are irrelevant.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/common/rng.hpp"
#include "mst/workload/workload.hpp"
#include "mst/platform/generator.hpp"
#include "support/alloc_probe.hpp"
#include "support/moore_hodgson_oracle.hpp"

namespace mst {
namespace {

TEST(ChainCounting, MatchesMaterializedConstruction) {
  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Chain chain = random_chain(inst, p, params);
    ChainCountScratch scratch;
    for (const Time t_lim : {0, 3, 17, 40, 95}) {
      const std::size_t cap = static_cast<std::size_t>(rng.uniform(1, 40));
      EXPECT_EQ(ChainScheduler::count_within(chain, t_lim, cap, scratch),
                ChainScheduler::schedule_within(chain, t_lim, cap).tasks.size())
          << chain.describe() << " T=" << t_lim << " cap=" << cap;
    }
  }
}

TEST(SpiderCounting, MatchesMaterializedConstruction) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Spider spider = random_spider(inst, legs, 3, params);
    SpiderCountScratch scratch;
    for (const Time t_lim : {0, 5, 21, 60, 140}) {
      const std::size_t cap = static_cast<std::size_t>(rng.uniform(1, 50));
      EXPECT_EQ(SpiderScheduler::count_within(spider, t_lim, cap, scratch),
                SpiderScheduler::schedule_within(spider, t_lim, cap).tasks.size())
          << spider.describe() << " T=" << t_lim << " cap=" << cap;
    }
  }
}

TEST(ChainCounting, ZeroAllocationsAfterWarmup) {
  Rng rng(11);
  const Chain chain = random_chain(rng, 8, GeneratorParams{1, 9, PlatformClass::kUniform});
  ChainCountScratch scratch;
  const std::size_t expected = ChainScheduler::count_within(chain, 200, 4096, scratch);

  alloc_probe::arm();
  const std::size_t counted = ChainScheduler::count_within(chain, 200, 4096, scratch);
  const long allocations = alloc_probe::allocations();
  EXPECT_EQ(counted, expected);
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(allocations, 0);
}

TEST(SpiderCounting, ZeroAllocationsAfterWarmup) {
  Rng rng(12);
  const Spider spider = random_spider(rng, 4, 3, GeneratorParams{1, 9, PlatformClass::kUniform});
  SpiderCountScratch scratch;
  const std::size_t expected = SpiderScheduler::count_within(spider, 300, 4096, scratch);

  alloc_probe::arm();
  const std::size_t counted = SpiderScheduler::count_within(spider, 300, 4096, scratch);
  const long allocations = alloc_probe::allocations();
  EXPECT_EQ(counted, expected);
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(allocations, 0);
}

TEST(ForkCounting, MatchesMaterializedConstruction) {
  Rng rng(2025);
  for (int trial = 0; trial < 60; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 5));
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Fork fork = random_fork(inst, p, params);
    // A fork is solved as its unit-leg spider.
    const Spider legs = Spider::from_fork(fork);
    SpiderSolveScratch scratch;
    SpiderSchedule into;
    for (const Time t_lim : {0, 4, 19, 45, 120}) {
      const std::size_t cap = static_cast<std::size_t>(rng.uniform(1, 40));
      const SpiderSchedule materialized = SpiderScheduler::schedule_within(legs, t_lim, cap);
      EXPECT_EQ(SpiderScheduler::count_within(legs, t_lim, cap, scratch.count),
                materialized.tasks.size())
          << fork.describe() << " T=" << t_lim << " cap=" << cap;
      // The warm-scratch twin replays the full pipeline.
      SpiderScheduler::schedule_within_into(legs, t_lim, cap, scratch, into);
      EXPECT_EQ(into.tasks.size(), materialized.tasks.size());
      EXPECT_EQ(into.makespan(), materialized.makespan())
          << fork.describe() << " T=" << t_lim << " cap=" << cap;
    }
  }
}

TEST(ForkCounting, ZeroAllocationsAfterWarmup) {
  Rng rng(13);
  const Spider legs =
      Spider::from_fork(random_fork(rng, 6, GeneratorParams{1, 9, PlatformClass::kUniform}));
  SpiderSolveScratch scratch;
  SpiderSchedule into;
  const std::size_t expected = SpiderScheduler::count_within(legs, 250, 4096, scratch.count);
  SpiderScheduler::schedule_within_into(legs, 250, 4096, scratch, into);
  SpiderScheduler::start_early(scratch, into);
  const std::pair<std::size_t, Time> expected_pair{into.tasks.size(), into.makespan()};

  alloc_probe::arm();
  const std::size_t counted = SpiderScheduler::count_within(legs, 250, 4096, scratch.count);
  SpiderScheduler::schedule_within_into(legs, 250, 4096, scratch, into);
  SpiderScheduler::start_early(scratch, into);
  const std::pair<std::size_t, Time> pair{into.tasks.size(), into.makespan()};
  const long allocations = alloc_probe::allocations();
  EXPECT_EQ(counted, expected);
  EXPECT_EQ(pair, expected_pair);
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(allocations, 0);
}

// A fork is rebuilt as its unit-leg spider in place (`Spider::assign_fork`,
// as the registry does in its scratch): a warm spider and scratch serve a
// different fork of as many slaves without allocating.  The second fork is
// the first with every time doubled, so its solves have the same shape and
// only the conversion could allocate.  A count with the makespan solve's
// cap at ten times its optimum allocates nothing either: the greedy's
// buffers are bounded by the cap, not the window.
TEST(ForkCounting, WarmScratchServesAnotherForkWithoutAllocating) {
  Rng rng(16);
  const Fork fork = random_fork(rng, 6, GeneratorParams{1, 9, PlatformClass::kUniform});
  std::vector<Processor> doubled = fork.slaves();
  for (Processor& slave : doubled) slave = Processor{2 * slave.comm, 2 * slave.work};
  const Fork other(doubled);
  const Workload workload = Workload::identical(60);
  Spider legs;
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  std::size_t counted = 0;
  for (int warm = 0; warm < 2; ++warm) {
    legs.assign_fork(fork);
    counted = SpiderScheduler::count_within(legs, 250, 4096, scratch.count);
    SpiderScheduler::schedule_into(legs, workload, scratch, out);
  }
  const Time makespan = out.makespan();

  alloc_probe::arm();
  legs.assign_fork(other);
  const std::size_t other_counted = SpiderScheduler::count_within(legs, 500, 4096, scratch.count);
  SpiderScheduler::schedule_into(legs, workload, scratch, out);
  const std::size_t wide_counted =
      SpiderScheduler::count_within(legs, 10 * out.makespan(), workload.count(), scratch.count);
  const long allocations = alloc_probe::allocations();
  EXPECT_EQ(other_counted, counted);
  EXPECT_EQ(out.makespan(), 2 * makespan);
  EXPECT_EQ(wide_counted, workload.count());
  EXPECT_GT(counted, 0u);
  EXPECT_EQ(allocations, 0);
}

// The makespan searches' probes: after one build at the top of the range,
// every probe at a lower horizon runs on the built instance and allocates
// nothing — the spider's and fork's release-dated ones.  Identical-task
// spider and fork searches probe with the greedy instead
// (`WarmMakespanSolvesAllocateNothing`); here their built instances are
// probed by the oracle's Moore–Hodgson on a warm buffer.  A chain count,
// identical or release-dated, reads its scratch's emission profile: once
// warm at the top, its counts at lower horizons allocate nothing either.
TEST(Counting, HoistedProbesAllocateNothing) {
  Rng rng(14);
  const GeneratorParams params{1, 9, PlatformClass::kUniform};
  const Chain chain = random_chain(rng, 6, params);
  // A fork is searched as its unit-leg spider.
  const Spider fork = Spider::from_fork(random_fork(rng, 6, params));
  const Spider spider = random_spider(rng, 4, 3, params);
  const Time top = 400;
  for (const Workload& workload :
       {Workload::identical(200), Workload::released({0, 0, 3, 9, 9, 14, 30, 31, 55, 80})}) {
    ChainCountScratch chain_scratch;
    SpiderCountScratch fork_scratch;
    SpiderCountScratch spider_scratch;
    std::vector<oracle::SelectedJob> selected;
    const std::size_t n = workload.count();
    const auto spider_probe = [&](Time t, SpiderCountScratch& built) {
      return workload.has_release_dates()
                 ? SpiderScheduler::probe_instance(t, workload, n, built)
                 : oracle::probe_instance(t, workload, n, built, selected);
    };
    SpiderScheduler::build_instance(fork, top, workload, n, fork_scratch);
    SpiderScheduler::build_instance(spider, top, workload, n, spider_scratch);
    // Warm the probe buffers (profile, heap, DP row) once at the top.
    const std::size_t expected =
        ChainScheduler::count_within(chain, top, workload, n, chain_scratch) +
        spider_probe(top, fork_scratch) + spider_probe(top, spider_scratch);

    alloc_probe::arm();
    std::size_t counted = 0;
    for (const Time t : {top, top / 2, top / 5, Time{0}}) {
      counted += ChainScheduler::count_within(chain, t, workload, n, chain_scratch) +
                 spider_probe(t, fork_scratch) + spider_probe(t, spider_scratch);
    }
    const long allocations = alloc_probe::allocations();
    EXPECT_GE(counted, expected);
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(allocations, 0);
  }
}

// With warm scratch, a whole makespan solve — probes, selection and
// materialization — allocates nothing, release-dated ones included.  The
// identical-task greedy builds only the nodes a count can keep, so its
// buffers are bounded by the cap, not the window: a count at ten times the
// optimum with the same cap allocates nothing either (the full node
// instance grows with the window).
TEST(Counting, WarmMakespanSolvesAllocateNothing) {
  Rng rng(15);
  const GeneratorParams params{1, 9, PlatformClass::kUniform};
  const Spider fork = Spider::from_fork(random_fork(rng, 6, params));
  const Spider spider = random_spider(rng, 4, 3, params);
  for (const Workload& workload :
       {Workload::identical(60), Workload::released({0, 0, 3, 9, 9, 14, 30, 31, 55, 80})}) {
    SpiderSolveScratch fork_scratch;
    SpiderSolveScratch spider_scratch;
    SpiderSchedule fork_out;
    SpiderSchedule spider_out;
    for (int warm = 0; warm < 2; ++warm) {
      SpiderScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
      SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    }
    const Time fork_makespan = fork_out.makespan();
    const Time spider_makespan = spider_out.makespan();

    alloc_probe::arm();
    SpiderScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
    SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    const long allocations = alloc_probe::allocations();
    EXPECT_EQ(fork_out.makespan(), fork_makespan);
    EXPECT_EQ(spider_out.makespan(), spider_makespan);
    EXPECT_EQ(allocations, 0);
    if (workload.has_release_dates()) continue;

    const std::size_t n = workload.count();
    alloc_probe::arm();
    const std::size_t fork_count =
        SpiderScheduler::count_within(fork, 10 * fork_makespan, n, fork_scratch.count);
    const std::size_t spider_count =
        SpiderScheduler::count_within(spider, 10 * spider_makespan, n, spider_scratch.count);
    const long wide_allocations = alloc_probe::allocations();
    EXPECT_EQ(fork_count, n);
    EXPECT_EQ(spider_count, n);
    EXPECT_EQ(wide_allocations, 0);
  }
}

}  // namespace
}  // namespace mst
