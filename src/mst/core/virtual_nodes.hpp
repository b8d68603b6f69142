#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/platform/processor.hpp"
#include "mst/schedule/chain_schedule.hpp"

/// \file virtual_nodes.hpp
/// The single-task-node transformations of §6 (Fig 6) and §7 (Fig 7).
///
/// Both the fork algorithm and the spider algorithm reduce "how many tasks
/// fit in a window of length `T_lim`" to selecting *virtual single-task
/// nodes*.  A virtual node stands for "one more task on this source" and
/// carries:
///   * `comm` — the time its emission occupies the master's out-port, and
///   * `exec` — the time needed between the end of that emission and the
///     horizon for the task (and every task queued behind it on the same
///     source) to finish.
/// A selection is feasible iff the emissions can be sequenced on the
/// one-port master so that every node's emission completes by
/// `T_lim - exec` — a pure one-machine deadline problem.

namespace mst {

/// One virtual single-task node.
struct VirtualNode {
  std::size_t source = 0;  ///< fork slave index, or spider leg index
  std::size_t rank = 0;    ///< 0 = smallest exec on this source, increasing
  Time comm = 0;           ///< master out-port occupation (`c` of the source)
  Time exec = 0;           ///< processing time of the node (Fig 6/7 label)

  /// Latest completion time of this node's emission, within a window of
  /// length `t_lim`.
  [[nodiscard]] Time deadline(Time t_lim) const { return t_lim - exec; }

  friend bool operator==(const VirtualNode&, const VirtualNode&) = default;
};

std::string to_string(const VirtualNode& node);

/// Fig 6 expansion of one fork slave `(c, w)`: nodes with processing times
/// `w, w + m, w + 2m, …` where `m = max(c, w)`.  The node with exec
/// `w + q·m` covers the case "this slave executes `q+1` tasks": counting
/// backward from the horizon, the task whose communication ends at
/// `T_lim - (w + q·m)` still leaves room for the `q` tasks behind it —
/// whether the slave is compute-bound (`m = w`, executions back-to-back) or
/// link-bound (`m = c`, arrivals pace the executions).
///
/// Only nodes that could ever be scheduled are generated
/// (`exec + c <= t_lim`), at most `max_per_slave` of them:
/// `min(max_per_slave, (t_lim - w - c)/m + 1)`, and none when
/// `t_lim - w < c`.  That count is a closed form, so no node's `exec` is
/// formed just to find it out of range — every generated node has
/// `exec <= t_lim - c`, which cannot overflow.
std::vector<VirtualNode> expand_fork_slave(const Processor& slave, std::size_t slave_index,
                                           Time t_lim, std::size_t max_per_slave);

/// Fig 7 expansion of one spider leg: `leg_schedule` must be the decision-
/// form chain schedule of the leg for the window `t_lim` (tasks in ascending
/// first-emission order).  Task with first emission `C_1` becomes a node
/// with `comm = c_1` (the leg's first-link latency) and
/// `exec = t_lim - C_1 - c_1`: emitting it by `C_1 + c_1` guarantees — by
/// the suffix-optimality of the backward construction — that it and every
/// later task of the leg can still finish by `t_lim` (Lemma 4).
std::vector<VirtualNode> expand_leg(const ChainSchedule& leg_schedule, std::size_t leg_index,
                                    Time t_lim);

}  // namespace mst
