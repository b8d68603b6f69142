#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "mst/workload/workload.hpp"

/// \file chain_schedule.hpp
/// Concrete schedules on chain platforms (Definition 1 of the paper).

namespace mst {

/// Placement of one task on a chain: destination processor `P(i)` (0-based
/// here), starting time `T(i)` and the communication vector `C(i)`.
struct ChainTask {
  std::size_t proc = 0;    ///< destination processor, `emissions.size() - 1`
  Time start = 0;          ///< `T(i)`: execution start on `proc`
  CommVector emissions;    ///< `C(i)`: emission time on links `0..proc`

  /// Completion of the last hop: arrival time at the destination.
  [[nodiscard]] Time arrival(const Chain& chain) const;
  /// `T(i) + w_{P(i)}`.
  [[nodiscard]] Time end(const Chain& chain) const;

  friend bool operator==(const ChainTask&, const ChainTask&) = default;
};

/// A complete schedule of `n` identical tasks on a chain.  Tasks are kept in
/// first-link emission order (the paper's WLOG convention
/// `C^1_1 <= ... <= C^n_1`).
struct ChainSchedule {
  Chain chain;
  std::vector<ChainTask> tasks;

  [[nodiscard]] std::size_t num_tasks() const { return tasks.size(); }

  /// Definition 2: completion time of the last task (0 for no tasks).  Task
  /// `i` runs for `workload.size_of(i)·w`; the default workload sizes every
  /// task 1.
  [[nodiscard]] Time makespan(const Workload& workload = {}) const;

  /// Number of tasks executed by each processor.
  [[nodiscard]] std::vector<std::size_t> tasks_per_proc() const;

  /// Shift every time in the schedule by `delta` (the paper's final
  /// `-C^1_1` normalization uses this).
  void shift(Time delta);

  friend bool operator==(const ChainSchedule&, const ChainSchedule&) = default;
};

}  // namespace mst
