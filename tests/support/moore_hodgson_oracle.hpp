#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <vector>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file moore_hodgson_oracle.hpp
/// Test oracle: the identical-task spider selection as the library ran it
/// before the lazy greedy — Moore–Hodgson over every Fig 7 node of the
/// instance `SpiderScheduler::build_instance` merges, its max-heap on
/// `(c_1, id)` evicting the longest node (ties toward the larger id, i.e.
/// the higher leg), then the global cap trim and the step (4) resequencing.
/// The library's greedy (`spider_scheduler.hpp`) must reproduce its counts,
/// its per-leg counts and so every schedule bit for bit;
/// `tests/test_spider_greedy.cpp` checks that.  This is the only copy
/// of the Moore–Hodgson selection with ids over a built instance.

namespace mst::oracle {

/// Moore–Hodgson over the EDD-ordered `edd`, every deadline lowered by
/// `shift`: the selected `(proc_time, id)` pairs, in heap order.
inline std::vector<SelectedJob> moore_hodgson_select(const std::vector<EddJob>& edd, Time shift) {
  std::vector<SelectedJob> selected;
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
  return selected;
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
      const Time emission = built.emissions[built.offsets[l] + counts[l] - 1];
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
  return SpiderScheduler::probe_instance(t_lim, workload, cap, built);
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

/// The makespan form: the decision schedule of `n` tasks at the smallest
/// horizon whose count reaches `n`, shifted to start at 0.
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
  return out;
}

/// A fork's schedule: its unit-leg spider's, every task then started as
/// soon as it has arrived and its slave is free.
inline SpiderSchedule fork_starts(const Fork& fork, SpiderSchedule out) {
  std::vector<Time> slave_free(fork.size(), 0);
  for (SpiderTask& task : out.tasks) {
    const Processor& slave = fork.slave(task.leg);
    task.start = std::max(task.emissions.front() + slave.comm, slave_free[task.leg]);
    slave_free[task.leg] = task.start + slave.work;
  }
  return out;
}

}  // namespace mst::oracle
