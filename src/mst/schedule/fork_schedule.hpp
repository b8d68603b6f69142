#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/fork.hpp"
#include "mst/workload/workload.hpp"

/// \file fork_schedule.hpp
/// Concrete schedules on fork (star) platforms (§6).

namespace mst {

/// Placement of one task on a fork: the master emits it at `emission`
/// (occupying the out-port for `c_slave`), the slave starts executing at
/// `start >= emission + c_slave`.
struct ForkTask {
  std::size_t slave = 0;
  Time emission = 0;
  Time start = 0;

  [[nodiscard]] Time arrival(const Fork& fork) const { return emission + fork.slave(slave).comm; }
  [[nodiscard]] Time end(const Fork& fork) const { return start + fork.slave(slave).work; }

  friend bool operator==(const ForkTask&, const ForkTask&) = default;
};

/// Schedule of identical tasks on a fork, kept in emission order.
struct ForkSchedule {
  Fork fork;
  std::vector<ForkTask> tasks;

  [[nodiscard]] std::size_t num_tasks() const { return tasks.size(); }
  /// Completion time of the last task (0 for no tasks).  Task `i` runs for
  /// `workload.size_of(i)·w`; the default workload sizes every task 1.
  [[nodiscard]] Time makespan(const Workload& workload = {}) const;
  [[nodiscard]] std::vector<std::size_t> tasks_per_slave() const;

  friend bool operator==(const ForkSchedule&, const ForkSchedule&) = default;
};

}  // namespace mst
