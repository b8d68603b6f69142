#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file legs.hpp
/// A chain is the one-leg spider (`legs_of`, platform/spider.hpp).  The
/// makespan, the Definition 1 checker, the Gantt, SVG and JSON renderers,
/// the static replay and the ASAP replay each walk a schedule's legs once
/// through that view: a chain is leg 0, its resources carry no `leg l`
/// label prefix, and it has no master out-port (a spider's first emissions
/// share one across legs).

namespace mst {

/// The legs a schedule runs on: its chain (one leg) or its spider's.
inline std::span<const Chain> legs_of(const ChainSchedule& schedule) {
  return legs_of(schedule.chain);
}
inline std::span<const Chain> legs_of(const SpiderSchedule& schedule) {
  return legs_of(schedule.spider);
}

/// The leg a task runs on: 0 on a chain.
inline std::size_t leg_of(const ChainTask&) { return 0; }
inline std::size_t leg_of(const SpiderTask& task) { return task.leg; }

/// Whether tasks of this type are a spider's: they share the master's
/// out-port across legs, carry a `leg` field and label resources by leg.
template <class Task>
inline constexpr bool kSpiderTask = std::is_same_v<Task, SpiderTask>;

/// Completion of the last task, each running `size·w` from its start.
template <class Task>
Time legs_makespan(std::span<const Chain> legs, const std::vector<Task>& tasks,
                   const Workload& workload) {
  Time last = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    MST_REQUIRE(leg_of(t) < legs.size(), "leg index out of range");
    last = std::max(last, t.start + workload.size_of(i) * legs[leg_of(t)].work(t.proc));
  }
  return last;
}

}  // namespace mst
