#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file moore_hodgson_oracle.hpp
/// Test oracle: Moore–Hodgson (Moore 1968), the one copy left of it.  The
/// library selects identical-task spider and fork nodes with the lazy
/// ascending-`c` greedy (`spider_scheduler.hpp`); this file keeps the
/// selection it replaced — Moore–Hodgson over every Fig 7 node of the
/// instance `SpiderScheduler::build_instance` merges, its max-heap on
/// `(c_1, id)` evicting the longest node (ties toward the larger id, i.e.
/// the higher leg), then the global cap trim and the step (4)
/// resequencing.  The greedy must reproduce its counts, its per-leg counts
/// and so every schedule bit for bit; `tests/test_spider_greedy.cpp` checks
/// that.  A thin form over plain `(proc_time, deadline, id)` jobs serves
/// the textbook tests (`tests/test_moore_hodgson.cpp`).

namespace mst::oracle {

/// A selected job as `(proc_time, id)`; the selection heap evicts the
/// largest processing time first, ties toward the larger id.
using SelectedJob = std::pair<Time, std::size_t>;

/// Moore–Hodgson over the EDD-ordered `edd`, every deadline lowered by
/// `shift`: leaves the selected jobs in `selected` (heap order; reused
/// capacity, so a warm buffer allocates nothing).  A job whose shifted
/// deadline is below its processing time is skipped: it does not exist at
/// the shifted horizon.  When the running total overshoots a deadline,
/// evicting the longest selected job is optimal.
inline void moore_hodgson_select(const std::vector<EddJob>& edd, Time shift,
                                 std::vector<SelectedJob>& selected) {
  selected.clear();
  Time total = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;
    selected.emplace_back(job.proc_time, job.id);
    std::push_heap(selected.begin(), selected.end());
    total += job.proc_time;
    if (total > deadline) {
      std::pop_heap(selected.begin(), selected.end());
      total -= selected.back().first;
      selected.pop_back();
    }
  }
}

inline std::vector<SelectedJob> moore_hodgson_select(const std::vector<EddJob>& edd, Time shift) {
  std::vector<SelectedJob> selected;
  moore_hodgson_select(edd, shift, selected);
  return selected;
}

/// One job of the plain form.
struct DeadlineJob {
  Time proc_time = 0;  ///< time on the machine
  Time deadline = 0;   ///< latest allowed completion
  std::size_t id = 0;  ///< caller-side identity, reported back
};

/// Maximum-cardinality on-time subset of `jobs`: the selected ids,
/// ascending.  The subset is feasible run back-to-back in EDD order; jobs
/// with `deadline < proc_time` are never selected.  Ties are broken by
/// `(deadline, proc_time, id)`, `EddJob`'s order.
inline std::vector<std::size_t> moore_hodgson(const std::vector<DeadlineJob>& jobs) {
  std::vector<EddJob> edd;
  for (const DeadlineJob& job : jobs) edd.push_back(EddJob{job.deadline, job.proc_time, job.id});
  std::sort(edd.begin(), edd.end());
  std::vector<std::size_t> ids;
  for (const SelectedJob& job : moore_hodgson_select(edd, 0)) ids.push_back(job.second);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The identical-task probe of an instance `SpiderScheduler::build_instance`
/// left in `built`: Moore–Hodgson's count at `t_lim` (in
/// `[0, built.build_horizon]`), capped at `min(cap, workload.count())` like
/// the library's counts.  `selected` is reused capacity.
inline std::size_t probe_instance(Time t_lim, const Workload& workload, std::size_t cap,
                                  const SpiderCountScratch& built,
                                  std::vector<SelectedJob>& selected) {
  moore_hodgson_select(built.edd, built.build_horizon - t_lim, selected);
  return std::min({selected.size(), cap, workload.count()});
}

/// The kept nodes per leg of the decision at `t_lim` with cap `cap`:
/// Moore–Hodgson's per-leg counts, trimmed to `cap` by dropping the largest
/// exec among each leg's earliest kept node (ties toward the lower leg).
inline std::vector<std::size_t> leg_counts(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch built;
  SpiderScheduler::build_instance(spider, t_lim, Workload::identical(cap), cap, built);
  std::vector<std::size_t> counts(spider.num_legs(), 0);
  std::size_t total = 0;
  for (const SelectedJob& job : moore_hodgson_select(built.edd, 0)) {
    const auto leg = static_cast<std::size_t>(
        std::upper_bound(built.offsets.begin(), built.offsets.end(), job.second) -
        built.offsets.begin() - 1);
    ++counts[leg];
    ++total;
  }
  for (; total > cap; --total) {
    std::size_t worst = spider.num_legs();
    Time worst_exec = -1;
    for (std::size_t l = 0; l < spider.num_legs(); ++l) {
      if (counts[l] == 0) continue;
      const Time emission = built.profile.leg(l).emission(counts[l] - 1, t_lim);
      const Time exec = t_lim - emission - spider.leg(l).comm(0);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = l;
      }
    }
    --counts[worst];
  }
  return counts;
}

/// The decision count: Moore–Hodgson's count over the built instance,
/// capped.
inline std::size_t count_within(const Spider& spider, Time t_lim, std::size_t cap) {
  SpiderCountScratch built;
  const Workload workload = Workload::identical(cap);
  SpiderScheduler::build_instance(spider, t_lim, workload, cap, built);
  std::vector<SelectedJob> selected;
  return probe_instance(t_lim, workload, cap, built, selected);
}

/// The decision schedule: each leg's kept suffix, its tasks emitted
/// back-to-back from 0 in EDD order of their planned emission-completion
/// deadlines (ties toward the lower leg, then the earlier task).
inline SpiderSchedule schedule_within(const Spider& spider, Time t_lim, std::size_t cap) {
  const std::vector<std::size_t> counts = leg_counts(spider, t_lim, cap);
  std::vector<ChainSchedule> legs(spider.num_legs());
  std::vector<std::tuple<Time, std::size_t, std::size_t>> chosen;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    if (counts[l] == 0) continue;
    legs[l] = ChainScheduler::schedule_within(spider.leg(l), t_lim, counts[l]);
    for (std::size_t j = 0; j < counts[l]; ++j) {
      chosen.emplace_back(legs[l].tasks[j].emissions.front() + spider.leg(l).comm(0), l, j);
    }
  }
  std::sort(chosen.begin(), chosen.end());
  SpiderSchedule out{spider, {}};
  Time port = 0;
  for (const auto& [deadline, leg, j] : chosen) {
    const ChainTask& task = legs[leg].tasks[j];
    SpiderTask placed{leg, task.proc, task.start, task.emissions};
    placed.emissions.front() = port;
    port += spider.leg(leg).comm(0);
    out.tasks.push_back(placed);
  }
  return out;
}

/// The start pass of the makespan forms, written out plainly: in
/// master-emission order, each task keeps its master emission, relays as
/// soon as it has arrived and the sending processor's port is free, and
/// starts as soon as it has arrived and its processor is free.
inline SpiderSchedule start_early(SpiderSchedule out) {
  std::vector<std::vector<Time>> port_free;
  std::vector<std::vector<Time>> proc_free;
  for (const Chain& leg : out.spider.legs()) {
    port_free.emplace_back(leg.size(), 0);
    proc_free.emplace_back(leg.size(), 0);
  }
  std::vector<std::size_t> order(out.tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return out.tasks[a].emissions.front() < out.tasks[b].emissions.front();
  });
  for (const std::size_t i : order) {
    SpiderTask& task = out.tasks[i];
    const Chain& leg = out.spider.leg(task.leg);
    for (std::size_t d = 1; d <= task.proc; ++d) {
      const Time arrival = task.emissions[d - 1] + leg.comm(d - 1);
      task.emissions[d] = std::max(arrival, port_free[task.leg][d - 1]);
      port_free[task.leg][d - 1] = task.emissions[d] + leg.comm(d);
    }
    task.start = std::max(task.arrival(out.spider), proc_free[task.leg][task.proc]);
    proc_free[task.leg][task.proc] = task.start + leg.work(task.proc);
  }
  return out;
}

/// The makespan form: the decision schedule of `n` tasks at the smallest
/// horizon whose count reaches `n`, shifted to start at 0, started early.
inline SpiderSchedule schedule(const Spider& spider, std::size_t n) {
  Time hi = 1;
  while (count_within(spider, hi, n) < n) hi *= 2;
  Time lo = 0;
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (count_within(spider, mid, n) >= n) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  SpiderSchedule out = schedule_within(spider, lo, n);
  out.normalize();
  return start_early(std::move(out));
}

}  // namespace mst::oracle
