// Release-date scheduling, cross-validated against small exhaustive
// oracles.  The oracle enumerates every destination sequence and times it
// with the release-gated ASAP placement (for identical tasks, Lemma 1's
// uncrossing argument makes destination sequences + ASAP exhaustive; the
// positional release dates ride along because uncrossing preserves the
// emission order).  The native algorithms — the chain backward construction
// anchored at the minimal feasible horizon and the fork/spider
// positional-release selection DP — must match it exactly, makespan form
// and decision form alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/baselines/asap.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

/// Random workload of `n` unit tasks with releases in [0, spread].
Workload random_released(Rng& rng, std::size_t n, Time spread) {
  std::vector<Time> releases(n);
  for (Time& r : releases) r = rng.uniform(0, spread);
  return Workload::released(std::move(releases));
}

// ---------------------------------------------------------------------------
// Chain oracle
// ---------------------------------------------------------------------------

/// Minimal release-gated ASAP makespan over every destination sequence of
/// length `k` (kTimeInfinity if k == 0 is never passed).
Time chain_oracle_makespan(const Chain& chain, const Workload& workload) {
  const std::size_t k = workload.count();
  std::vector<std::size_t> dests(k, 0);
  Time best = kTimeInfinity;
  while (true) {
    best = std::min(best, asap_chain_schedule(chain, dests, workload).makespan());
    // Odometer over the destination alphabet.
    std::size_t pos = 0;
    while (pos < k && ++dests[pos] == chain.size()) dests[pos++] = 0;
    if (pos == k) break;
  }
  return best;
}

/// Oracle decision form: the largest k whose best sequence fits the window.
std::size_t chain_oracle_count(const Chain& chain, const Workload& workload, Time t_lim) {
  for (std::size_t k = workload.count(); k >= 1; --k) {
    if (chain_oracle_makespan(chain, workload.prefix(k)) <= t_lim) return k;
  }
  return 0;
}

TEST(ReleaseDates, ChainOptimalMatchesExhaustiveOracle) {
  Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 3));
    const GeneratorParams params{1, 6, all_platform_classes()[trial % 5]};
    const Chain chain = random_chain(inst, p, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 5));
    const Workload workload = random_released(rng, n, rng.uniform(0, 30));

    // Makespan form.
    const ChainSchedule schedule = ChainScheduler::schedule(chain, workload);
    const Time oracle = chain_oracle_makespan(chain, workload);
    EXPECT_EQ(schedule.makespan(), oracle)
        << chain.describe() << " " << workload.describe();
    const FeasibilityReport report = check_feasibility(schedule, workload);
    EXPECT_TRUE(report.ok()) << report.summary();

    // Decision form at assorted windows, including the exact optimum.
    ChainCountScratch scratch;
    for (const Time t_lim : {oracle - 1, oracle, oracle + 3, Time{0}}) {
      if (t_lim < 0) continue;
      const std::size_t counted =
          ChainScheduler::count_within(chain, t_lim, workload, 64, scratch);
      EXPECT_EQ(counted, chain_oracle_count(chain, workload, t_lim))
          << chain.describe() << " " << workload.describe() << " T=" << t_lim;
      const ChainSchedule within =
          ChainScheduler::schedule_within(chain, t_lim, workload, 64);
      EXPECT_EQ(within.num_tasks(), counted);
      if (counted > 0) {
        EXPECT_LE(within.makespan(), t_lim);
      }
      const FeasibilityReport within_report =
          check_feasibility(within, workload.prefix(counted));
      EXPECT_TRUE(within_report.ok()) << within_report.summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Spider / fork oracles (spider destinations cover both)
// ---------------------------------------------------------------------------

std::vector<SpiderDest> spider_alphabet(const Spider& spider) {
  std::vector<SpiderDest> all;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    for (std::size_t q = 0; q < spider.leg(l).size(); ++q) all.push_back({l, q});
  }
  return all;
}

Time spider_oracle_makespan(const Spider& spider, const Workload& workload) {
  const std::vector<SpiderDest> alphabet = spider_alphabet(spider);
  const std::size_t k = workload.count();
  std::vector<std::size_t> pick(k, 0);
  std::vector<SpiderDest> dests(k);
  Time best = kTimeInfinity;
  while (true) {
    for (std::size_t i = 0; i < k; ++i) dests[i] = alphabet[pick[i]];
    best = std::min(best, asap_spider_schedule(spider, dests, workload).makespan());
    std::size_t pos = 0;
    while (pos < k && ++pick[pos] == alphabet.size()) pick[pos++] = 0;
    if (pos == k) break;
  }
  return best;
}

std::size_t spider_oracle_count(const Spider& spider, const Workload& workload, Time t_lim) {
  for (std::size_t k = workload.count(); k >= 1; --k) {
    if (spider_oracle_makespan(spider, workload.prefix(k)) <= t_lim) return k;
  }
  return 0;
}

TEST(ReleaseDates, SpiderOptimalMatchesExhaustiveOracle) {
  Rng rng(505);
  for (int trial = 0; trial < 25; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 2));
    const GeneratorParams params{1, 6, all_platform_classes()[trial % 5]};
    const Spider spider = random_spider(inst, legs, 2, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 4));
    const Workload workload = random_released(rng, n, rng.uniform(0, 25));

    const SpiderSchedule schedule = SpiderScheduler::schedule(spider, workload);
    const Time oracle = spider_oracle_makespan(spider, workload);
    EXPECT_EQ(schedule.makespan(), oracle)
        << spider.describe() << " " << workload.describe();
    const FeasibilityReport report = check_feasibility(schedule, workload);
    EXPECT_TRUE(report.ok()) << report.summary();

    SpiderCountScratch scratch;
    for (const Time t_lim : {oracle - 1, oracle, oracle + 4}) {
      if (t_lim < 0) continue;
      const std::size_t counted =
          SpiderScheduler::count_within(spider, t_lim, workload, 64, scratch);
      EXPECT_EQ(counted, spider_oracle_count(spider, workload, t_lim))
          << spider.describe() << " " << workload.describe() << " T=" << t_lim;
      const SpiderSchedule within =
          SpiderScheduler::schedule_within(spider, t_lim, workload, 64);
      EXPECT_EQ(within.num_tasks(), counted);
      const FeasibilityReport within_report =
          check_feasibility(within, workload.prefix(counted));
      EXPECT_TRUE(within_report.ok()) << within_report.summary();
    }
  }
}

TEST(ReleaseDates, ForkOptimalMatchesExhaustiveOracle) {
  Rng rng(606);
  for (int trial = 0; trial < 25; ++trial) {
    Rng inst = rng.split();
    const auto slaves = static_cast<std::size_t>(rng.uniform(1, 3));
    const GeneratorParams params{1, 6, all_platform_classes()[trial % 5]};
    const Fork fork = random_fork(inst, slaves, params);
    const Spider embedded = Spider::from_fork(fork);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 4));
    const Workload workload = random_released(rng, n, rng.uniform(0, 25));

    const SpiderSchedule schedule = ForkScheduler::schedule(fork, workload);
    const Time oracle = spider_oracle_makespan(embedded, workload);
    EXPECT_EQ(schedule.makespan(), oracle) << fork.describe() << " " << workload.describe();
    const FeasibilityReport report = check_feasibility(schedule, workload);
    EXPECT_TRUE(report.ok()) << report.summary();

    ForkCountScratch scratch;
    for (const Time t_lim : {oracle - 1, oracle, oracle + 4}) {
      if (t_lim < 0) continue;
      const std::size_t counted =
          ForkScheduler::count_within(fork, t_lim, workload, 64, scratch);
      EXPECT_EQ(counted, spider_oracle_count(embedded, workload, t_lim))
          << fork.describe() << " " << workload.describe() << " T=" << t_lim;
      const SpiderSchedule within = ForkScheduler::schedule_within(fork, t_lim, workload, 64);
      EXPECT_EQ(within.num_tasks(), counted);
      const FeasibilityReport within_report =
          check_feasibility(within, workload.prefix(counted));
      EXPECT_TRUE(within_report.ok()) << within_report.summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Registry integration
// ---------------------------------------------------------------------------

TEST(ReleaseDates, RegistryGatesUnsupportedWorkloads) {
  const api::Platform chain = Chain::from_vectors({2, 3}, {3, 5});
  const Workload released = Workload::released({0, 4, 8});
  const Workload sized = Workload(3, {1, 2, 3}, {});

  // Chain optimal: release dates yes, sizes no.
  EXPECT_NO_THROW((void)api::registry().solve(chain, "optimal", released));
  EXPECT_THROW((void)api::registry().solve(chain, "optimal", sized), std::invalid_argument);
  // The identical-only periodic baseline rejects both.
  EXPECT_THROW((void)api::registry().solve(chain, "periodic", released),
               std::invalid_argument);
  // List heuristics take both.
  EXPECT_NO_THROW((void)api::registry().solve(chain, "forward-greedy", sized));
  EXPECT_NO_THROW((void)api::registry().solve(chain, "forward-greedy", released));

  // Decision form: the pool rides in SolveOptions and is gated identically.
  api::SolveOptions pooled;
  pooled.workload = std::make_shared<const Workload>(sized);
  EXPECT_THROW((void)api::registry().solve_within(chain, "optimal", 30, pooled),
               std::invalid_argument);
  EXPECT_NO_THROW((void)api::registry().solve_within(chain, "forward-greedy", 30, pooled));
}

TEST(ReleaseDates, RegistryReleasedResultsAreOptimalAndFeasible) {
  Rng rng(707);
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const GeneratorParams params{1, 7, PlatformClass::kUniform};
    const std::vector<api::Platform> platforms{
        random_chain(inst, 3, params),
        random_fork(inst, 3, params),
        random_spider(inst, 2, 2, params),
    };
    const Workload workload = random_released(rng, 6, 20);
    for (const api::Platform& platform : platforms) {
      const api::SolveResult result = api::registry().solve(platform, "optimal", workload);
      EXPECT_TRUE(result.optimal);
      EXPECT_EQ(result.tasks, 6u);
      EXPECT_EQ(result.workload, workload);
      const FeasibilityReport report = api::check_feasibility(result);
      EXPECT_TRUE(report.ok()) << api::describe(platform) << ": " << report.summary();

      // Decision form at the released optimum recovers every task, fast
      // path and materialized path agreeing.
      api::SolveOptions pooled;
      pooled.workload = std::make_shared<const Workload>(workload);
      const api::DecisionResult within =
          api::registry().solve_within(platform, "optimal", result.makespan, pooled);
      EXPECT_EQ(within.tasks, 6u) << api::describe(platform);
      EXPECT_TRUE(within.optimal);
      const FeasibilityReport within_report = api::check_feasibility(within);
      EXPECT_TRUE(within_report.ok()) << within_report.summary();
      EXPECT_EQ(api::registry().max_tasks(platform, "optimal", result.makespan, pooled), 6u);
    }
  }
}

TEST(ReleaseDates, AdapterPoolMatchesDirectPrefixScan) {
  // Heuristic entries reach the pool through the makespan-inversion
  // adapter; its answer must equal the obvious scan over canonical
  // prefixes.
  Rng rng(808);
  const Chain chain = random_chain(rng, 3, GeneratorParams{1, 6, PlatformClass::kUniform});
  const api::Platform platform = chain;
  const Workload workload = random_released(rng, 8, 15);
  api::SolveOptions pooled;
  pooled.workload = std::make_shared<const Workload>(workload);
  for (const Time deadline : {0, 10, 30, 80, 500}) {
    std::size_t expected = 0;
    for (std::size_t k = 1; k <= workload.count(); ++k) {
      const Time makespan =
          api::registry().solve(platform, "forward-greedy", workload.prefix(k)).makespan;
      if (makespan <= deadline) expected = k;
    }
    EXPECT_EQ(api::registry().max_tasks(platform, "forward-greedy", deadline, pooled), expected)
        << "T=" << deadline;
  }
}

}  // namespace
}  // namespace mst
