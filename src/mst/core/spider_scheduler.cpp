#include "mst/core/spider_scheduler.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/kernels.hpp"
#include "mst/core/moore_hodgson.hpp"

namespace mst {

SpiderTransformation SpiderScheduler::transform(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  SpiderTransformation result;
  result.leg_schedules.reserve(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    ChainSchedule leg_schedule = ChainScheduler::schedule_within(spider.leg(l), t_lim, cap);
    auto leg_nodes = expand_leg(leg_schedule, l, t_lim);
    result.nodes.insert(result.nodes.end(), leg_nodes.begin(), leg_nodes.end());
    result.leg_schedules.push_back(std::move(leg_schedule));
  }
  return result;
}

namespace {

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the spider reduction is only optimal for identical task sizes");
}

/// Upper end of every spider horizon search: all `n` tasks on the single leg
/// minimizing the trivial first-processor schedule.
Time best_leg_horizon(const Spider& spider, std::size_t n) {
  Time hi = kTimeInfinity;
  for (const Chain& leg : spider.legs()) hi = std::min(hi, leg.t_infinity(n));
  return hi;
}

// Steps (1)–(4) run on warm scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Steps (1)–(2) materialized: per-leg decision schedules into pooled slots,
/// virtual nodes enumerated in the exact `transform` order (leg-major,
/// ascending first emission — ids must match for Moore–Hodgson
/// tie-breaking), each node's leg in `scratch.leg_of`.
void build_legs(const Spider& spider, Time t_lim, std::size_t cap, SpiderSolveScratch& scratch) {
  const std::size_t num_legs = spider.num_legs();
  if (scratch.legs.size() < num_legs) scratch.legs.resize(num_legs);
  scratch.jobs.clear();
  scratch.leg_of.clear();
  for (std::size_t l = 0; l < num_legs; ++l) {
    ChainScheduler::schedule_within_into(spider.leg(l), t_lim, cap, scratch.count.chain,
                                         scratch.legs[l]);
    const Time c1 = spider.leg(l).comm(0);
    for (const ChainTask& t : scratch.legs[l].tasks) {
      scratch.jobs.push_back(DeadlineJob{c1, t.emissions.front() + c1, scratch.jobs.size()});
      scratch.leg_of.push_back(l);
    }
  }
}

/// Step (4): revert to a spider schedule.  Replays `scratch.chosen` —
/// (deadline, leg, task_index) in emission order — on the master port:
/// emissions back-to-back from 0, the j-th no earlier than `releases[j]`
/// when release dates are given, everything downstream of the first link
/// untouched.  Lemma 3: the fork step never needs to emit later than the
/// leg schedule did, so moving the first emission earlier is always legal.
/// `out` is rebuilt in recycled slots.
void resequence(const Spider& spider, const std::vector<Time>* releases,
                SpiderSolveScratch& scratch, SpiderSchedule& out) {
  out.spider = spider;  // copy-assign reuses the nested leg buffers when warm
  std::size_t used = 0;
  Time port = 0;
  for (const auto& [deadline, leg, task_index] : scratch.chosen) {
    const ChainTask& src = scratch.legs[leg].tasks[task_index];
    const Time emission = releases != nullptr ? std::max(port, (*releases)[used]) : port;
    port = emission + spider.leg(leg).comm(0);
    MST_ASSERT(port <= deadline);
    MST_ASSERT(emission <= src.emissions.front());
    if (used == out.tasks.size()) out.tasks.emplace_back();
    SpiderTask& task = out.tasks[used++];
    task.leg = leg;
    task.proc = src.proc;
    task.start = src.start;
    task.emissions.assign(src.emissions.begin(), src.emissions.end());
    task.emissions.front() = emission;
  }
  out.tasks.resize(used);
}

}  // namespace

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  return count_within(spider, t_lim, Workload::identical(cap), cap, scratch);
}

std::size_t SpiderScheduler::count_within(const Spider& spider, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          SpiderCountScratch& scratch) {
  build_instance(spider, t_lim, workload, cap, scratch);
  return probe_instance(t_lim, workload, cap, scratch);
}

void SpiderScheduler::build_instance(const Spider& spider, Time horizon,
                                     const Workload& workload, std::size_t cap,
                                     SpiderCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(horizon >= 0, "time limit must be non-negative");
  // Steps (1)–(2) count-only: each leg's backward construction with the
  // first-emissions sink, whose emissions become virtual-node deadlines
  // (`expand_leg`: deadline = C_1 + c_1).  The leg emissions at
  // `T <= horizon` are these shifted down and cut before the first negative
  // one, i.e. exactly the nodes whose shifted deadline is still at least
  // `c_1` — the probe's filter.
  const std::size_t k_cap = std::min(cap, workload.count());
  scratch.build_horizon = horizon;
  scratch.edd.clear();
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    const Chain& leg = spider.leg(l);
    scratch.emissions.clear();
    ChainScheduler::count_within_emissions(leg, horizon, k_cap, scratch.chain, scratch.emissions);
    const Time c1 = leg.comm(0);
    for (const Time emission : scratch.emissions) {
      scratch.edd.push_back(EddJob{emission + c1, c1});
    }
  }
  std::sort(scratch.edd.begin(), scratch.edd.end());
}

std::size_t SpiderScheduler::probe_instance(Time t_lim, const Workload& workload,
                                            std::size_t cap, SpiderCountScratch& scratch) {
  // Step (3).  Counts are per-leg capped like the materialized path; its
  // global cap trim only ever reduces the total to the cap, so the probe's
  // `min` reproduces it.  With release dates, the positional-release
  // selection DP replaces Moore–Hodgson.
  return detail::probe_selection(scratch, t_lim, workload, cap);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const std::size_t num_legs = spider.num_legs();
  build_legs(spider, t_lim, cap, scratch);

  // Step (3): optimal virtual-node selection on the master's one-port, then
  // per-leg counts.  Each leg is normalized to its smallest-exec nodes, i.e.
  // the *suffix* of the leg schedule: swapping a selected node for an
  // unselected same-comm node with a later deadline keeps the selection
  // EDD-feasible, so counts are preserved.
  moore_hodgson_select(scratch.jobs, scratch.sel_heap);
  scratch.counts.assign(num_legs, 0);
  for (const auto& [comm, id] : scratch.sel_heap) ++scratch.counts[scratch.leg_of[id]];

  // Global cap: trim the hardest node (largest exec among each leg's next
  // removal candidate) until within cap.  Removing never breaks feasibility.
  std::size_t total = scratch.sel_heap.size();
  while (total > cap) {
    std::size_t worst_leg = num_legs;
    Time worst_exec = -1;
    for (std::size_t l = 0; l < num_legs; ++l) {
      if (scratch.counts[l] == 0) continue;
      const std::size_t m = scratch.legs[l].tasks.size();
      const ChainTask& t = scratch.legs[l].tasks[m - scratch.counts[l]];  // earliest kept task
      const Time exec = t_lim - t.emissions.front() - spider.leg(l).comm(0);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst_leg = l;
      }
    }
    MST_ASSERT(worst_leg < num_legs);
    --scratch.counts[worst_leg];
    --total;
  }

  // Step (4) in EDD order of the kept suffix tasks' emission-completion
  // deadlines.
  scratch.chosen.clear();
  for (std::size_t l = 0; l < num_legs; ++l) {
    const ChainSchedule& ls = scratch.legs[l];
    const std::size_t m = ls.tasks.size();
    const Time c1 = spider.leg(l).comm(0);
    for (std::size_t j = m - scratch.counts[l]; j < m; ++j) {
      scratch.chosen.emplace_back(ls.tasks[j].emissions.front() + c1, l, j);
    }
  }
  std::sort(scratch.chosen.begin(), scratch.chosen.end());
  resequence(spider, nullptr, scratch, out);
}
// mstlint: zero-alloc-end

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim,
                                           const Workload& workload, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) {
    schedule_within_into(spider, t_lim, k_cap, scratch, out);
    return;
  }
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  // Step (3), release-aware: positional-release selection on the one-port.
  // `moore_hodgson_released` sorts a copy, so `scratch.jobs` stays indexed
  // by id.
  build_legs(spider, t_lim, k_cap, scratch);
  const std::vector<std::size_t> picked =
      moore_hodgson_released(scratch.jobs, workload.releases(), k_cap);

  // Step (4) with release gating: replay the DP's own EDD sequence —
  // position j starts no earlier than the j-th smallest release date, and
  // the DP already proved every completion meets its node's deadline.  Each
  // leg's positions are mapped, in order, onto the *suffix* tasks of its
  // schedule (only suffixes are realizable, Lemma 4): within a leg the EDD
  // order is ascending deadline, and the suffix deadlines dominate any
  // chosen subset's pointwise, so the mapped tasks only ever gain slack.
  // (A global re-sort after the swap would NOT be safe: moving a job to a
  // later EDD position also moves it to a later positional release, which
  // can exceed the relaxed deadline.  Keeping the DP's sequence sidesteps
  // that entirely.)  `scratch.counts` becomes each leg's next suffix task.
  scratch.counts.assign(spider.num_legs(), 0);
  for (const std::size_t id : picked) ++scratch.counts[scratch.leg_of[id]];
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    scratch.counts[l] = scratch.legs[l].tasks.size() - scratch.counts[l];
  }
  scratch.chosen.clear();
  for (const std::size_t id : picked) {
    const std::size_t leg = scratch.leg_of[id];
    scratch.chosen.emplace_back(scratch.jobs[id].deadline, leg, scratch.counts[leg]++);
  }
  resequence(spider, &workload.releases(), scratch, out);
}

void SpiderScheduler::schedule_into(const Spider& spider, const Workload& workload,
                                    SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  // Minimal horizon admitting every task: the single-best-leg schedule
  // shifted past the last release (0 without release dates) always fits.
  // The probes only need counts: steps (1)–(2) run once, at the top, and
  // every probe shifts that instance down to its horizon.
  const Time top = best_leg_horizon(spider, n) + workload.last_release();
  build_instance(spider, top, workload, n, scratch.count);
  const Time horizon = detail::min_horizon(
      0, top, [&](Time t) { return probe_instance(t, workload, n, scratch.count) >= n; });
  schedule_within_into(spider, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  // Release dates pin the origin; identical workloads start at 0.
  if (!workload.has_release_dates()) out.normalize();
}

// Value-returning forms: a local scratch around the `_into` forms above.

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                std::size_t cap) {
  return schedule_within(spider, t_lim, Workload::identical(cap), cap);
}

SpiderSchedule SpiderScheduler::schedule_within(const Spider& spider, Time t_lim,
                                                const Workload& workload, std::size_t cap) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_within_into(spider, t_lim, workload, cap, scratch, out);
  return out;
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, std::size_t n) {
  return schedule(spider, Workload::identical(n));
}

SpiderSchedule SpiderScheduler::schedule(const Spider& spider, const Workload& workload) {
  SpiderSolveScratch scratch;
  SpiderSchedule out;
  schedule_into(spider, workload, scratch, out);
  return out;
}

Time SpiderScheduler::makespan(const Spider& spider, std::size_t n) {
  return schedule(spider, n).makespan();
}

std::size_t SpiderScheduler::max_tasks(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch scratch;
  return count_within(spider, t_lim, cap, scratch);
}

}  // namespace mst
