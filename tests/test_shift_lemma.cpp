// The shift lemma behind the makespan searches, and the hoisted probes it
// licenses.  The backward construction only takes `min`s of, and subtracts
// from, values that all start at the horizon, so its first emissions at any
// `T <= H` are the ones at `H` shifted by `T - H` and cut before the first
// negative one.  Every makespan search therefore builds its instance once,
// at the top of its range, and probes it at each bisection step: a probe at
// `T` after a build at `top` must equal a fresh build-and-probe at `T`
// (`count_within`), for forks and spiders, with identical and
// release-dated workloads, on every platform class.  A chain's counts read
// its emission profile, which must answer every horizon and cap as the
// construction there does, and one warm scratch must count as a fresh one.  Identical-task spider
// and fork counts are the greedy's, which builds no instance; their built
// instances are probed with the oracle's Moore–Hodgson
// (tests/support/moore_hodgson_oracle.hpp), which must give the same counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/workload.hpp"
#include "support/moore_hodgson_oracle.hpp"

namespace mst {
namespace {

Workload released_workload(Rng& rng, std::size_t n) {
  std::vector<Time> release(n);
  Time t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.4)) t += rng.uniform(0, 9);
    release[i] = t;
  }
  return Workload::released(std::move(release));
}

Workload random_workload(Rng& rng, std::size_t n) {
  return rng.chance(0.5) ? Workload::identical(n) : released_workload(rng, n);
}

/// Every horizon in `[0, top]` when the range is small, else the ends plus
/// `samples` random draws.
std::vector<Time> probe_horizons(Rng& rng, Time top, int samples) {
  std::vector<Time> horizons;
  if (top <= 160) {
    for (Time t = 0; t <= top; ++t) horizons.push_back(t);
    return horizons;
  }
  horizons = {0, top / 2, top - 1, top};
  for (int i = 0; i < samples; ++i) horizons.push_back(rng.uniform(0, top));
  return horizons;
}

/// The first emissions of the decision-form construction at `t_lim`, at
/// most `cap`, latest task first: a fresh construction, materialized.
std::vector<Time> first_emissions(const Chain& chain, Time t_lim, std::size_t cap) {
  const ChainSchedule built = ChainScheduler::schedule_within(chain, t_lim, cap);
  std::vector<Time> out;
  for (auto task = built.tasks.rbegin(); task != built.tasks.rend(); ++task) {
    out.push_back(task->emissions.front());
  }
  return out;
}

/// The emissions at `H` shifted by `shift` and cut before the first negative.
std::vector<Time> shift_and_cut(const std::vector<Time>& emissions, Time shift) {
  std::vector<Time> out;
  for (const Time e : emissions) {
    if (e - shift < 0) break;
    out.push_back(e - shift);
  }
  return out;
}

/// The search's upper end on a fork: all `n` tasks on the best single slave.
Time fork_top(const Fork& fork, const Workload& workload) {
  Time top = kTimeInfinity;
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& s = fork.slave(i);
    top = std::min(top, s.comm + static_cast<Time>(workload.count() - 1) *
                                     std::max(s.comm, s.work) +
                            s.work);
  }
  return top + workload.last_release();
}

/// The search's upper end on a spider: all `n` tasks on the best single leg.
Time spider_top(const Spider& spider, const Workload& workload) {
  Time top = kTimeInfinity;
  for (const Chain& leg : spider.legs()) top = std::min(top, leg.t_infinity(workload.count()));
  return top + workload.last_release();
}

/// A probe at `t` of the spider instance built in `hoisted`: the library's
/// positional-release DP with release dates, the oracle's Moore–Hodgson for
/// identical tasks (the library counts those with the greedy, which builds
/// no instance).
std::size_t hoisted_probe(Time t, const Workload& workload, std::size_t cap,
                          SpiderCountScratch& hoisted) {
  if (workload.has_release_dates()) {
    return SpiderScheduler::probe_instance(t, workload, cap, hoisted);
  }
  std::vector<oracle::SelectedJob> selected;
  return oracle::probe_instance(t, workload, cap, hoisted, selected);
}

GeneratorParams params_of(Rng& rng, int trial) {
  return GeneratorParams{1, rng.uniform(2, 12), all_platform_classes()[trial % 5]};
}

TEST(ShiftLemma, ChainEmissionsShiftWithTheHorizon) {
  Rng rng(0x5417);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t p = trial % 6 == 5 ? 64 : static_cast<std::size_t>(rng.uniform(1, 8));
    const Chain chain = random_chain(rng, p, params_of(rng, trial));
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    const Time top = chain.t_infinity(cap) + rng.uniform(0, 20);
    const std::vector<Time> at_top = first_emissions(chain, top, cap);
    for (const Time t : probe_horizons(rng, top, 20)) {
      EXPECT_EQ(first_emissions(chain, t, cap), shift_and_cut(at_top, top - t))
          << chain.describe() << " H=" << top << " T=" << t << " cap=" << cap;
    }
  }
}

/// `chain` with each link's latency zeroed with probability 1/3: `c = 0`
/// links let several ranks share one first emission.
Chain with_free_links(Rng& rng, const Chain& chain) {
  std::vector<Processor> procs = chain.procs();
  for (Processor& proc : procs) {
    if (rng.chance(1.0 / 3)) proc.comm = 0;
  }
  return Chain(std::move(procs));
}

// A leg profile is one construction, anchored at the largest time and
// extended only as far as each horizon asks.  Extended out of order — a
// middle horizon, a low one, then the top — its ranks at every horizon and
// cap must be the decision-form construction's there: the same count, first
// emissions and destinations.
TEST(ShiftLemma, LegProfileMatchesTheConstructionAtEveryHorizon) {
  Rng rng(0x9F0F);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t p = trial % 6 == 5 ? 64 : static_cast<std::size_t>(rng.uniform(1, 8));
    const Chain chain = with_free_links(rng, random_chain(rng, p, params_of(rng, trial)));
    const auto most = static_cast<std::size_t>(rng.uniform(1, 40));
    const Time top = chain.t_infinity(most) + rng.uniform(0, 20);
    std::vector<Time> horizons = {top / 2, rng.uniform(0, top / 4), top};
    for (const Time t : probe_horizons(rng, top, 20)) horizons.push_back(t);
    LegProfile profile;
    profile.reset(chain);
    for (const Time t : horizons) {
      for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, most / 2, most}) {
        const std::size_t ranks = profile.ranks(t, cap);
        const ChainSchedule direct = ChainScheduler::schedule_within(chain, t, cap);
        ASSERT_EQ(ranks, direct.tasks.size())
            << chain.describe() << " T=" << t << " cap=" << cap;
        for (std::size_t i = 0; i < ranks; ++i) {
          const ChainTask& task = direct.tasks[ranks - 1 - i];
          EXPECT_EQ(profile.emission(i, t), task.emissions.front())
              << chain.describe() << " T=" << t << " cap=" << cap << " rank " << i;
          EXPECT_EQ(profile.dest(i), task.proc)
              << chain.describe() << " T=" << t << " cap=" << cap << " rank " << i;
        }
      }
    }
    // Lazy: never more than one rank past what the top asked for.
    EXPECT_LE(profile.depth(), most + 1) << chain.describe();
  }
}

/// The release-dated count at `t` from a fresh materialized construction:
/// the largest `k <= min(cap, n)` whose `k` latest first emissions dominate
/// the `k` earliest release dates, every `k` tried.
std::size_t matched_count(const Chain& chain, Time t, const Workload& workload,
                          std::size_t cap) {
  const std::vector<Time> emissions =
      first_emissions(chain, t, std::min(cap, workload.count()));
  std::size_t best = 0;
  for (std::size_t k = 1; k <= emissions.size(); ++k) {
    bool feasible = true;
    for (std::size_t j = 0; j < k; ++j) {
      feasible = feasible && emissions[j] >= workload.release_of(k - 1 - j);
    }
    if (feasible) best = k;
  }
  return best;
}

// A chain count reads the scratch's emission profile, rebound per call.
// One warm scratch, reused over every horizon below the search's top, must
// count as a fresh scratch does, and as the sorted-release matching over a
// fresh materialized construction does.
TEST(ShiftLemma, ChainWarmCountMatchesFreshCount) {
  Rng rng(0xC4A1);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t p = trial % 6 == 5 ? 64 : static_cast<std::size_t>(rng.uniform(1, 8));
    const Chain chain = random_chain(rng, p, params_of(rng, trial));
    const Workload workload = random_workload(rng, static_cast<std::size_t>(rng.uniform(1, 24)));
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    const Time top = chain.t_infinity(workload.count()) + workload.last_release();
    ChainCountScratch warm;
    (void)ChainScheduler::count_within(chain, top, workload, cap, warm);
    for (const Time t : probe_horizons(rng, top, 20)) {
      ChainCountScratch fresh;
      const std::size_t counted = ChainScheduler::count_within(chain, t, workload, cap, warm);
      EXPECT_EQ(counted, ChainScheduler::count_within(chain, t, workload, cap, fresh))
          << chain.describe() << " H=" << top << " T=" << t << " cap=" << cap;
      EXPECT_EQ(counted, matched_count(chain, t, workload, cap))
          << chain.describe() << " H=" << top << " T=" << t << " cap=" << cap;
    }
  }
}

// Forks run as unit-leg spiders: the spider instance hoisted from the fork
// answers every fork count.
TEST(ShiftLemma, ForkHoistedProbeMatchesCount) {
  Rng rng(0xF04C);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t p = trial % 8 == 7 ? 64 : static_cast<std::size_t>(rng.uniform(1, 8));
    const Fork fork = random_fork(rng, p, params_of(rng, trial));
    const std::size_t n = trial % 8 == 7 ? 60 : static_cast<std::size_t>(rng.uniform(1, 16));
    const Workload workload = random_workload(rng, n);
    const auto cap = static_cast<std::size_t>(rng.uniform(1, static_cast<std::int64_t>(n) + 4));
    const Time top = fork_top(fork, workload);
    const Spider legs = Spider::from_fork(fork);
    SpiderCountScratch hoisted;
    SpiderCountScratch fresh;
    SpiderScheduler::build_instance(legs, top, workload, cap, hoisted);
    for (const Time t : probe_horizons(rng, top, 20)) {
      EXPECT_EQ(hoisted_probe(t, workload, cap, hoisted),
                SpiderScheduler::count_within(legs, t, workload, cap, fresh))
          << fork.describe() << " H=" << top << " T=" << t << " cap=" << cap;
    }
  }
}

TEST(ShiftLemma, SpiderHoistedProbeMatchesCount) {
  Rng rng(0x5B1D);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t legs = trial % 8 == 7 ? 12 : static_cast<std::size_t>(rng.uniform(1, 6));
    const Spider spider = random_spider(rng, legs, 1, 5, params_of(rng, trial));
    const std::size_t n = trial % 8 == 7 ? 60 : static_cast<std::size_t>(rng.uniform(1, 16));
    const Workload workload = random_workload(rng, n);
    const auto cap = static_cast<std::size_t>(rng.uniform(1, static_cast<std::int64_t>(n) + 4));
    const Time top = spider_top(spider, workload);
    SpiderCountScratch hoisted;
    SpiderCountScratch fresh;
    SpiderScheduler::build_instance(spider, top, workload, cap, hoisted);
    for (const Time t : probe_horizons(rng, top, 20)) {
      EXPECT_EQ(hoisted_probe(t, workload, cap, hoisted),
                SpiderScheduler::count_within(spider, t, workload, cap, fresh))
          << spider.describe() << " H=" << top << " T=" << t << " cap=" << cap;
    }
  }
}

// A built spider instance answers release-dated probes only; identical-task
// counts are the greedy's.
TEST(ShiftLemma, SpiderProbeRejectsIdenticalWorkloads) {
  Rng rng(0x1D);
  const Spider spider = random_spider(rng, 3, 1, 3, params_of(rng, 0));
  const Workload workload = Workload::identical(6);
  SpiderCountScratch built;
  SpiderScheduler::build_instance(spider, 60, workload, 6, built);
  EXPECT_THROW(SpiderScheduler::probe_instance(30, workload, 6, built), std::invalid_argument);
}

/// `makespan` is the smallest horizon whose fresh count admits all `n`
/// tasks.
template <typename Scheduler, typename Platform, typename Scratch>
void expect_smallest_feasible(const Platform& platform, const Workload& workload, Time makespan,
                              Scratch& scratch) {
  const std::size_t n = workload.count();
  EXPECT_GE(Scheduler::count_within(platform, makespan, workload, n, scratch), n)
      << platform.describe() << " makespan " << makespan;
  if (makespan > 0) {
    EXPECT_LT(Scheduler::count_within(platform, makespan - 1, workload, n, scratch), n)
        << platform.describe() << " makespan " << makespan;
  }
}

/// A spider's makespan form is the selection at the smallest horizon whose
/// fresh count admits all `n` tasks, started early; the start pass can end
/// it before that horizon (with release dates), never after.
void expect_spider_search_lands(const Spider& spider, const Workload& workload,
                                SpiderSolveScratch& scratch) {
  const std::size_t n = workload.count();
  const SpiderSchedule solved = SpiderScheduler::schedule(spider, workload);
  Time horizon = solved.makespan();
  while (SpiderScheduler::count_within(spider, horizon, workload, n, scratch.count) < n) {
    ++horizon;
  }
  expect_smallest_feasible<SpiderScheduler>(spider, workload, horizon, scratch.count);
  SpiderSchedule expected;
  SpiderScheduler::schedule_within_into(spider, horizon, workload, n, scratch, expected);
  SpiderScheduler::start_early(scratch, expected);
  EXPECT_EQ(solved, expected) << spider.describe() << " horizon " << horizon;
}

// The hoisted searches land on the horizon a per-probe rebuild finds: each
// optimal chain makespan, and each spider or fork search's horizon, is the
// smallest horizon whose fresh count reaches `n`.
TEST(ShiftLemma, SearchesFindTheSmallestFeasibleHorizon) {
  Rng rng(0x0B7);
  for (int trial = 0; trial < 60; ++trial) {
    const GeneratorParams params = params_of(rng, trial);
    const Workload workload = random_workload(rng, static_cast<std::size_t>(rng.uniform(1, 14)));
    const Chain chain = random_chain(rng, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const Spider fork =
        Spider::from_fork(random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 6)), params));
    const Spider spider =
        random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 4)), 1, 5, params);
    ChainCountScratch chain_scratch;
    SpiderSolveScratch spider_scratch;
    expect_smallest_feasible<ChainScheduler>(
        chain, workload, ChainScheduler::schedule(chain, workload).makespan(), chain_scratch);
    expect_spider_search_lands(fork, workload, spider_scratch);
    expect_spider_search_lands(spider, workload, spider_scratch);
  }
}

}  // namespace
}  // namespace mst
