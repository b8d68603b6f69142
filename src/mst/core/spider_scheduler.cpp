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

/// The range of every spider makespan search: each leg is a source, and
/// each of its processors is reached after the leg's path latency.
detail::SearchRange search_range(const Spider& spider, const Workload& workload) {
  detail::SearchRange range(workload.count(), workload.last_release());
  for (const Chain& leg : spider.legs()) {
    range.add_source(leg.proc(0));
    Time path = 0;
    for (const Processor& proc : leg.procs()) {
      if (__builtin_add_overflow(path, proc.comm, &path)) break;
      range.add_reach(path, proc.work);
    }
  }
  return range;
}

// Steps (1)–(4) run on warm scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

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

/// Steps (3)–(4) at `t_lim` on the instance built in `scratch.count` for
/// the same workload and cap `k_cap`, into `out`.
///
/// Step (3) selects on the master's one-port and counts the selected nodes
/// per leg.  Each leg is then normalized to its smallest-exec nodes, i.e.
/// the *suffix* of its decision schedule: swapping a selected node for an
/// unselected same-comm node with a later deadline keeps the selection
/// EDD-feasible, so counts are preserved.  A suffix of `k` tasks is the
/// first `k` steps of the leg's backward construction at `t_lim` (Lemma 4),
/// so only those are rebuilt, never the whole leg.
void select_spider(const Spider& spider, Time t_lim, const Workload& workload,
                   std::size_t k_cap, SpiderSolveScratch& scratch, SpiderSchedule& out) {
  SpiderCountScratch& count = scratch.count;
  const Time shift = count.build_horizon - t_lim;
  const std::size_t num_legs = spider.num_legs();
  scratch.counts.assign(num_legs, 0);
  const std::vector<Time>* releases = nullptr;
  if (workload.has_release_dates()) {
    // Release-aware: positional-release selection on the one-port.
    releases = &workload.releases();
    moore_hodgson_released(count.edd, shift, *releases, k_cap, count.dp, scratch.taken,
                           scratch.picked);
    for (const EddJob& job : scratch.picked) {
      ++scratch.counts[detail::run_of(count.offsets, job.id)];
    }
  } else {
    moore_hodgson_select(count.edd, shift, scratch.sel_heap);
    for (const auto& [comm, id] : scratch.sel_heap) {
      ++scratch.counts[detail::run_of(count.offsets, id)];
    }
    // Global cap: trim the hardest node (largest exec among each leg's next
    // removal candidate, its earliest kept task) until within cap.
    // Removing never breaks feasibility.  A node's exec `H - deadline` does
    // not shift with the horizon.
    std::size_t total = scratch.sel_heap.size();
    while (total > k_cap) {
      std::size_t worst_leg = num_legs;
      Time worst_exec = -1;
      for (std::size_t l = 0; l < num_legs; ++l) {
        if (scratch.counts[l] == 0) continue;
        const Time emission = count.emissions[count.offsets[l] + scratch.counts[l] - 1];
        const Time exec = count.build_horizon - emission - spider.leg(l).comm(0);
        if (exec > worst_exec) {
          worst_exec = exec;
          worst_leg = l;
        }
      }
      MST_ASSERT(worst_leg < num_legs);
      --scratch.counts[worst_leg];
      --total;
    }
  }

  // Each leg's kept suffix, in ascending first-emission order.
  if (scratch.legs.size() < num_legs) scratch.legs.resize(num_legs);
  for (std::size_t l = 0; l < num_legs; ++l) {
    if (scratch.counts[l] == 0) continue;
    ChainScheduler::schedule_within_into(spider.leg(l), t_lim, scratch.counts[l], count.chain,
                                         scratch.legs[l]);
  }

  scratch.chosen.clear();
  if (releases != nullptr) {
    // Step (4) with release gating: replay the DP's own EDD sequence —
    // position j starts no earlier than the j-th smallest release date, and
    // the DP already proved every completion meets its node's deadline.
    // Each leg's positions are mapped, in order, onto the suffix tasks of
    // its schedule (only suffixes are realizable, Lemma 4): within a leg
    // the EDD order is ascending deadline, and the suffix deadlines
    // dominate any chosen subset's pointwise, so the mapped tasks only ever
    // gain slack.  (A global re-sort after the swap would NOT be safe:
    // moving a job to a later EDD position also moves it to a later
    // positional release, which can exceed the relaxed deadline.  Keeping
    // the DP's sequence sidesteps that entirely.)  `scratch.counts` becomes
    // each leg's next suffix task.
    scratch.counts.assign(num_legs, 0);
    for (const EddJob& job : scratch.picked) {
      const std::size_t leg = detail::run_of(count.offsets, job.id);
      scratch.chosen.emplace_back(job.deadline - shift, leg, scratch.counts[leg]++);
    }
  } else {
    // Step (4) in EDD order of the kept suffix tasks' emission-completion
    // deadlines.
    for (std::size_t l = 0; l < num_legs; ++l) {
      const Time c1 = spider.leg(l).comm(0);
      for (std::size_t j = 0; j < scratch.counts[l]; ++j) {
        scratch.chosen.emplace_back(scratch.legs[l].tasks[j].emissions.front() + c1, l, j);
      }
    }
    std::sort(scratch.chosen.begin(), scratch.chosen.end());
  }
  resequence(spider, releases, scratch, out);
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
  // `c_1` — the probe's filter.  Leg `l`'s emissions land in
  // `scratch.emissions[offsets[l] ..]`, latest first; reversed, they are
  // its run in EDD order, with ids `offsets[l] + j` in ascending first
  // emission (the node order of `transform`).
  const std::size_t k_cap = std::min(cap, workload.count());
  scratch.build_horizon = horizon;
  scratch.emissions.clear();
  scratch.offsets.assign(1, 0);
  for (const Chain& leg : spider.legs()) {
    ChainScheduler::count_within_emissions(leg, horizon, k_cap, scratch.chain, scratch.emissions);
    scratch.offsets.push_back(scratch.emissions.size());
  }
  detail::merge_edd_runs(
      scratch.offsets,
      [&](std::size_t l, std::size_t j) {
        const Time c1 = spider.leg(l).comm(0);
        const Time emission = scratch.emissions[scratch.offsets[l + 1] - 1 - j];
        return EddJob{emission + c1, c1, scratch.offsets[l] + j};
      },
      scratch.merge, scratch.edd);
}

std::size_t SpiderScheduler::probe_instance(Time t_lim, const Workload& workload,
                                            std::size_t cap, SpiderCountScratch& scratch) {
  // Step (3).  Counts are per-leg capped like the materialized path; its
  // global cap trim only ever reduces the total to the cap, so the probe's
  // `min` reproduces it.  With release dates, the positional-release
  // selection DP replaces Moore–Hodgson.
  MST_REQUIRE(t_lim >= 0 && t_lim <= scratch.build_horizon,
              "probe horizon must lie in [0, build horizon]");
  const Time shift = scratch.build_horizon - t_lim;
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) {
    return moore_hodgson_count(scratch.edd, shift, k_cap, scratch.heap);
  }
  return moore_hodgson_released_count(scratch.edd, shift, workload.releases(), k_cap,
                                      scratch.dp);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  schedule_within_into(spider, t_lim, Workload::identical(cap), cap, scratch, out);
}

void SpiderScheduler::schedule_within_into(const Spider& spider, Time t_lim,
                                           const Workload& workload, std::size_t cap,
                                           SpiderSolveScratch& scratch, SpiderSchedule& out) {
  build_instance(spider, t_lim, workload, cap, scratch.count);
  select_spider(spider, t_lim, workload, std::min(cap, workload.count()), scratch, out);
}

void SpiderScheduler::schedule_into(const Spider& spider, const Workload& workload,
                                    SpiderSolveScratch& scratch, SpiderSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  // Steps (1)–(2) run once, at the top; every probe shifts that instance
  // down to its horizon, and steps (3)–(4) select from it at the optimum.
  const std::size_t n = workload.count();
  const detail::SearchRange range = search_range(spider, workload);
  SpiderCountScratch& built = scratch.count;
  build_instance(spider, range.top(), workload, n, built);
  built.floor = range.floor();
  const Time horizon = detail::search_instance(
      built, built.floor, n, [&](Time t) { return probe_instance(t, workload, n, built); });
  select_spider(spider, horizon, workload, n, scratch, out);
  MST_ASSERT(out.tasks.size() == n);
  // Release dates pin the origin; identical workloads start at 0.
  if (!workload.has_release_dates()) out.normalize();
}
// mstlint: zero-alloc-end

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
