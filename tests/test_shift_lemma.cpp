// The shift lemma behind the makespan searches, and the hoisted probes it
// licenses.  The backward construction only takes `min`s of, and subtracts
// from, values that all start at the horizon, so its first emissions at any
// `T <= H` are the ones at `H` shifted by `T - H` and cut before the first
// negative one.  Every makespan search therefore builds its instance once,
// at the top of its range, and probes it at each bisection step: a probe at
// `T` after a build at `top` must equal a fresh build-and-probe at `T`
// (`count_within`), for chains, forks and spiders, with identical and
// release-dated workloads, on every platform class.  Identical-task spider
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
    ChainCountScratch scratch;
    std::vector<Time> at_top;
    ChainScheduler::count_within_emissions(chain, top, cap, scratch, at_top);
    for (const Time t : probe_horizons(rng, top, 20)) {
      std::vector<Time> at_t;
      ChainScheduler::count_within_emissions(chain, t, cap, scratch, at_t);
      EXPECT_EQ(at_t, shift_and_cut(at_top, top - t))
          << chain.describe() << " H=" << top << " T=" << t << " cap=" << cap;
    }
  }
}

TEST(ShiftLemma, ChainHoistedProbeMatchesCount) {
  Rng rng(0xC4A1);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t p = trial % 6 == 5 ? 64 : static_cast<std::size_t>(rng.uniform(1, 8));
    const Chain chain = random_chain(rng, p, params_of(rng, trial));
    const Workload workload = random_workload(rng, static_cast<std::size_t>(rng.uniform(1, 24)));
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    const Time top = chain.t_infinity(workload.count()) + workload.last_release();
    ChainCountScratch hoisted;
    ChainCountScratch fresh;
    ChainScheduler::build_instance(chain, top, workload, cap, hoisted);
    for (const Time t : probe_horizons(rng, top, 20)) {
      EXPECT_EQ(ChainScheduler::probe_instance(t, workload, cap, hoisted),
                ChainScheduler::count_within(chain, t, workload, cap, fresh))
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
