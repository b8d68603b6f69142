// The identical-task spider greedy (core/spider_scheduler.hpp).
//
// Differential: against the Moore–Hodgson selection it replaced
// (tests/support/moore_hodgson_oracle.hpp), on seeded random, tie-heavy,
// unit-leg (fork) and one-leg spiders, at caps 1..64 and 2^20 and horizons
// 0..300, the counts, the per-leg kept counts and the whole decision and
// makespan schedules must be identical; counts and per-leg counts also at
// `exact-large`'s sizes (up to 256 legs, n 1024, deadlines to 1024).  The exchange argument in
// core/spider_scheduler.hpp proves the counts equal; the per-leg counts,
// and so the schedules, are pinned only here.
//
// Work: the nodes a solve builds (`SpiderCountScratch::nodes_built`, the
// deterministic counter `core.spider.nodes_built`) stay near the nodes it
// keeps; a release-dated solve's DP positions (`dp_cells`,
// `core.spider.dp_cells`) stay far below a dense pass; and the sweep totals
// are the same at any thread count.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/workload/arrival.hpp"
#include "support/moore_hodgson_oracle.hpp"

namespace mst {
namespace {

constexpr std::size_t kLargeCap = std::size_t{1} << 20;

GeneratorParams random_params(Rng& rng) {
  return GeneratorParams{1, rng.uniform(1, 9), static_cast<PlatformClass>(rng.uniform(0, 4))};
}

/// Ties everywhere: times in [0, 1] or [1, 2], identical legs, or every
/// leg's first link made equal.
Spider tie_heavy_spider(Rng& rng) {
  const auto legs = static_cast<std::size_t>(rng.uniform(1, 8));
  const Time base = rng.uniform(0, 1);
  const bool identical = rng.chance(0.5);
  const bool equal_first = rng.chance(0.5);
  const Time first = rng.uniform(base, base + 1);
  std::vector<Chain> chains;
  for (std::size_t l = 0; l < legs; ++l) {
    if (identical && l > 0) {
      chains.push_back(chains.front());
      continue;
    }
    std::vector<Processor> procs(static_cast<std::size_t>(rng.uniform(1, 5)));
    for (Processor& proc : procs) {
      proc = Processor{rng.uniform(base, base + 1), rng.uniform(1, 2)};
    }
    if (equal_first) procs.front().comm = first;
    chains.emplace_back(procs);
  }
  return Spider(std::move(chains));
}

/// One case: a random, tie-heavy or one-leg spider, or a fork.
struct Case {
  Spider spider;
  bool is_fork = false;
};

Case random_case(Rng& rng, int trial) {
  switch (trial % 4) {
    case 0:
      return {random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 8)), 5,
                            random_params(rng)),
              false};
    case 1:
      return {tie_heavy_spider(rng), false};
    case 2: {
      Fork fork = rng.chance(0.5)
                      ? random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 8)),
                                    random_params(rng))
                      : random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 8)),
                                    GeneratorParams{1, rng.uniform(1, 2)});
      return {Spider::from_fork(fork), true};
    }
    default:
      return {Spider{random_chain(rng, static_cast<std::size_t>(rng.uniform(1, 5)),
                                  random_params(rng))},
              false};
  }
}

std::vector<std::size_t> tasks_per_leg(const SpiderSchedule& schedule) {
  std::vector<std::size_t> counts(schedule.spider.num_legs(), 0);
  for (const SpiderTask& task : schedule.tasks) ++counts[task.leg];
  return counts;
}

TEST(GreedyDifferential, DecisionsMatchMooreHodgson) {
  Rng rng(0x6EED);
  SpiderSolveScratch solve;
  SpiderSchedule out;
  for (int trial = 0; trial < 20000; ++trial) {
    const Case c = random_case(rng, trial);
    const Spider& spider = c.spider;
    const Time horizon = rng.uniform(0, 300);
    const std::size_t cap =
        rng.chance(0.2) ? kLargeCap : static_cast<std::size_t>(rng.uniform(1, 64));
    const std::string where = spider.describe() + " T=" + std::to_string(horizon) +
                              " cap=" + std::to_string(cap);

    const std::size_t expected_count = oracle::count_within(spider, horizon, cap);
    const std::vector<std::size_t> expected_legs = oracle::leg_counts(spider, horizon, cap);
    const SpiderSchedule expected = oracle::schedule_within(spider, horizon, cap);
    EXPECT_EQ(SpiderScheduler::count_within(spider, horizon, cap, solve.count), expected_count)
        << where;
    SpiderScheduler::schedule_within_into(spider, horizon, cap, solve, out);
    EXPECT_EQ(solve.counts, expected_legs) << where;
    if (c.is_fork) {
      // A fork decision, as the registry's fork entries answer it, starts
      // its tasks early.
      SpiderScheduler::start_early(solve, out);
      EXPECT_EQ(out, oracle::start_early(expected)) << where;
    } else {
      EXPECT_EQ(out, expected) << where;
    }
    EXPECT_EQ(tasks_per_leg(expected), expected_legs) << where;
    EXPECT_EQ(out.tasks.size(), expected_count) << where;
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(GreedyDifferential, MakespanSchedulesMatchMooreHodgson) {
  Rng rng(0x6EEE);
  SpiderSolveScratch solve;
  SpiderSchedule out;
  for (int trial = 0; trial < 20000; ++trial) {
    const Case c = random_case(rng, trial);
    const Spider& spider = c.spider;
    const auto n = static_cast<std::size_t>(rng.uniform(1, 64));
    const std::string where = spider.describe() + " n=" + std::to_string(n);

    SpiderScheduler::schedule_into(spider, Workload::identical(n), solve, out);
    EXPECT_EQ(out, oracle::schedule(spider, n)) << where;
    EXPECT_TRUE(check_feasibility(out).ok()) << where;
    if (::testing::Test::HasFailure()) break;
  }
}

/// `spider` with every time multiplied by `factor` (no product may overflow).
Spider scaled(const Spider& spider, Time factor) {
  std::vector<Chain> legs;
  for (const Chain& leg : spider.legs()) {
    std::vector<Processor> procs = leg.procs();
    for (Processor& proc : procs) {
      EXPECT_FALSE(__builtin_mul_overflow(proc.comm, factor, &proc.comm));
      EXPECT_FALSE(__builtin_mul_overflow(proc.work, factor, &proc.work));
    }
    legs.emplace_back(std::move(procs));
  }
  return Spider(std::move(legs));
}

// The destinations-only form keeps its profiles from solve to solve, as
// `replan` does.  Over one spider, solves of random sizes read the same
// `(leg, proc)` sequence as the materialized schedule's tasks, and — with
// times near 2^60, where the largest pipelines overflow — reject exactly
// the sizes the materialized form rejects.
TEST(GreedyDifferential, DestinationsOnlyFormMatchesTheSchedule) {
  Rng rng(0xDE57);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Case c = random_case(rng, trial);
    const Spider spider = trial % 5 == 4 ? scaled(c.spider, Time{1} << 56) : c.spider;
    SpiderSolveScratch kept;
    kept.count.profile.reset(spider);
    SpiderSolveScratch fresh;
    SpiderSchedule out;
    std::vector<SpiderDest> dests;
    for (int solve = 0; solve < 6; ++solve) {
      const auto n = static_cast<std::size_t>(rng.uniform(1, 64));
      const std::string where = spider.describe() + " n=" + std::to_string(n);
      try {
        SpiderScheduler::schedule_into(spider, Workload::identical(n), fresh, out);
      } catch (const std::invalid_argument&) {
        EXPECT_THROW(SpiderScheduler::destinations_into(spider, n, kept, dests),
                     std::invalid_argument)
            << where;
        ++rejected;
        continue;
      }
      ++accepted;
      SpiderScheduler::destinations_into(spider, n, kept, dests);
      std::vector<SpiderDest> expected;
      for (const SpiderTask& task : out.tasks) expected.push_back({task.leg, task.proc});
      EXPECT_EQ(dests, expected) << where;
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 10 * rejected);
}

// At `exact-large`'s sizes — forks of 64 and 256 slaves, spiders of 64 and
// 256 legs of length 2, times in [4, 8] — the greedy's counts and per-leg
// counts equal Moore–Hodgson's on decisions at deadlines 256, 512 and 1024
// capped at n = 256 and 1024.  (The oracle's full instance makes makespan
// forms at n = 1024 several times dearer; the 40,000 small cases above
// cover those.)
TEST(GreedyDifferential, PerfbenchSizesMatchMooreHodgson) {
  Rng rng(0x1A26E);
  SpiderSolveScratch solve;
  SpiderSchedule out;
  const GeneratorParams params{4, 8};
  for (const std::size_t width : {64u, 256u}) {
    for (const bool fork : {true, false}) {
      const Spider spider = fork ? Spider::from_fork(random_fork(rng, width, params))
                                 : random_spider(rng, width, 2, 2, params);
      for (const std::size_t n : {256u, 1024u}) {
        for (const Time deadline : {256, 512, 1024}) {
          const std::string where = std::string(fork ? "fork " : "spider ") +
                                    std::to_string(width) + " n=" + std::to_string(n) +
                                    " T=" + std::to_string(deadline);
          const std::vector<std::size_t> expected = oracle::leg_counts(spider, deadline, n);
          std::size_t expected_count = 0;
          for (const std::size_t kept : expected) expected_count += kept;
          EXPECT_EQ(SpiderScheduler::count_within(spider, deadline, n, solve.count),
                    expected_count)
              << where;
          SpiderScheduler::schedule_within_into(spider, deadline, n, solve, out);
          EXPECT_EQ(solve.counts, expected) << where;
        }
      }
    }
  }
}

// The regression gate on the lazy build: a selection at the optimum builds
// at most `n + 2·legs` nodes (the full node instance at that horizon holds
// 90,455).
TEST(SpiderGreedyWork, SelectionBuildsFewNodesBeyondWhatItKeeps) {
  Rng rng(0x128);
  const std::size_t legs = 128;
  const std::size_t n = 1024;
  const Spider spider = random_spider(rng, legs, 2, 2, GeneratorParams{4, 8});
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  SpiderScheduler::schedule_into(spider, Workload::identical(n), scratch, out);
  const Time optimum = out.makespan();
  SpiderScheduler::schedule_within_into(spider, optimum, n, scratch, out);
  EXPECT_EQ(out.tasks.size(), n);
  EXPECT_GE(scratch.count.nodes_built, n);
  EXPECT_LE(scratch.count.nodes_built, n + 2 * legs);
}

// The gate on the emission profiles: a makespan solve builds each leg rank
// once, over every probe and its selection, so the nodes it counts are the
// profiles' depth.  The literals are the nodes the same solves built before
// the profiles, when every probe and the selection rebuilt each leg.  On the
// spider above the search runs no probe (its one-port floor meets the top),
// so the selection alone builds, as before; on a 128-leg spider with link
// latencies in [1, 12] the search runs 10 probes.
TEST(SpiderGreedyWork, MakespanSolveBuildsEachRankOnce) {
  struct Case {
    std::uint64_t seed;
    GeneratorParams params;
    std::size_t probes;
    std::size_t nodes_before;  // rebuilt per probe
  };
  const std::size_t legs = 128;
  const std::size_t n = 1024;
  for (const Case& c : {Case{0x128, GeneratorParams{4, 8}, 0, 1054},
                        Case{0x12B, GeneratorParams{1, 12}, 10, 11330}}) {
    Rng rng(c.seed);
    const Spider spider = random_spider(rng, legs, 2, 2, c.params);
    SpiderSolveScratch scratch;
    SpiderSchedule out;
    SpiderScheduler::schedule_into(spider, Workload::identical(n), scratch, out);
    EXPECT_EQ(scratch.count.probes, c.probes) << c.seed;
    EXPECT_EQ(scratch.count.nodes_built, scratch.count.profile.depth()) << c.seed;
    EXPECT_LE(scratch.count.nodes_built, c.nodes_before) << c.seed;
    if (c.probes > 0) {
      EXPECT_LT(scratch.count.nodes_built, c.nodes_before / 8) << c.seed;
    }
  }
}

// The gate on the positional-release DP's frozen prefix: release-dated fork
// `optimal` solves shaped like the benchmark's `release-optimal` cells (8
// slaves, times in [4, 8], n = 256, its three release families, twelve
// seeds) relax, over every probe and selection, at most an eighth of the
// `N·K` positions of one dense pass over each instance built at the
// search's top (`N` nodes, `K = n` tasks).  The gate is on the total: one
// solve ranges from about N (the prefix freezes right behind the count)
// to half of `N·K` (a search of seven passes where slower legs must fill
// positions the fastest could still lower).  The registry folds exactly the
// solve's count into `core.spider.dp_cells`.
TEST(SpiderGreedyWork, ReleaseDatedSolvesRelaxFewDpCells) {
  using Kind = ArrivalDist::Kind;
  const std::size_t n = 256;
  std::size_t cells = 0;
  std::size_t dense = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const ArrivalDist arrival : {ArrivalDist{Kind::kPoisson, 4, 0},
                                      ArrivalDist{Kind::kBursts, 8, 24},
                                      ArrivalDist{Kind::kPeriodic, 3, 0}}) {
      Rng rng(seed);
      const Fork fork = random_fork(rng, 8, GeneratorParams{4, 8});
      obs::MetricsRegistry metrics;
      api::SolveScratch scratch;
      api::SolveOptions options;
      options.metrics = &metrics;
      options.scratch = &scratch;
      (void)api::registry().solve(fork, "optimal", WorkloadGen{{}, arrival}.make(n, seed),
                                  options);
      const SpiderCountScratch& count = scratch.spider.count;
      std::int64_t counted = -1;
      for (const obs::MetricSample& sample : metrics.snapshot()) {
        if (sample.name == "core.spider.dp_cells") counted = sample.value;
      }
      const std::string where =
          "seed " + std::to_string(seed) + " " + WorkloadGen{{}, arrival}.label();
      EXPECT_GT(count.dp_cells, 0U) << where;
      EXPECT_EQ(counted, static_cast<std::int64_t>(count.dp_cells)) << where;
      cells += count.dp_cells;
      dense += count.edd.size() * n;
    }
  }
  EXPECT_LE(cells, dense / 8);
}

/// The value of the deterministic counter `name` after a small fork and
/// spider `optimal` sweep, both forms, with identical tasks and with
/// Poisson and burst release dates, run on `threads` workers.
std::int64_t sweep_counter(const std::string& name, unsigned threads) {
  using Kind = ArrivalDist::Kind;
  scenario::SweepSpec spec;
  spec.name = "nodes";
  spec.kinds = {api::PlatformKind::kFork, api::PlatformKind::kSpider};
  spec.sizes = {3, 12};
  spec.instances = 4;
  spec.algorithms = {"optimal"};
  spec.tasks = {9, 40};
  spec.deadlines = {30, 120};
  spec.workloads = {WorkloadGen{}, WorkloadGen{{}, {Kind::kPoisson, 4, 0}},
                    WorkloadGen{{}, {Kind::kBursts, 4, 12}}};
  obs::MetricsRegistry metrics;
  scenario::RunOptions options;
  options.threads = threads;
  options.metrics = &metrics;
  for (const scenario::CellOutcome& cell : scenario::run_cells(scenario::expand(spec), options)) {
    EXPECT_TRUE(cell.ok()) << cell.error;
  }
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return -1;
}

TEST(SpiderGreedyWork, NodesBuiltCounterIsIdenticalAtAnyThreadCount) {
  const std::int64_t one = sweep_counter("core.spider.nodes_built", 1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(one, sweep_counter("core.spider.nodes_built", 8));
}

TEST(SpiderGreedyWork, ProbesCounterIsIdenticalAtAnyThreadCount) {
  const std::int64_t one = sweep_counter("core.spider.probes", 1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(one, sweep_counter("core.spider.probes", 8));
}

TEST(SpiderGreedyWork, DpCellsCounterIsIdenticalAtAnyThreadCount) {
  const std::int64_t one = sweep_counter("core.spider.dp_cells", 1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(one, sweep_counter("core.spider.dp_cells", 8));
}

}  // namespace
}  // namespace mst
