#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/spider.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "mst/workload/workload.hpp"

/// \file spider_schedule.hpp
/// Concrete schedules on spider platforms (§7).

namespace mst {

/// Placement of one task on a spider: leg index, destination processor
/// within the leg, execution start, and the emission times along the leg.
/// `emissions[0]` is the master's emission — it occupies the master's
/// out-port for the leg's first-link latency, which is the resource shared
/// across legs.
struct SpiderTask {
  std::size_t leg = 0;
  std::size_t proc = 0;  ///< index within the leg
  Time start = 0;
  CommVector emissions;

  [[nodiscard]] Time arrival(const Spider& spider) const;
  [[nodiscard]] Time end(const Spider& spider) const;

  friend bool operator==(const SpiderTask&, const SpiderTask&) = default;
};

/// Schedule of identical tasks on a spider, kept in master-emission order.
struct SpiderSchedule {
  Spider spider;
  std::vector<SpiderTask> tasks;

  [[nodiscard]] std::size_t num_tasks() const { return tasks.size(); }

  /// Completion time of the last task (0 for no tasks).  Task `i` runs for
  /// `workload.size_of(i)·w`; the default workload sizes every task 1.
  [[nodiscard]] Time makespan(const Workload& workload = {}) const;

  /// Tasks per leg.
  [[nodiscard]] std::vector<std::size_t> tasks_per_leg() const;

  /// Normalize so the earliest event is at time 0; returns the applied shift.
  Time normalize();

  friend bool operator==(const SpiderSchedule&, const SpiderSchedule&) = default;
};

}  // namespace mst
