#pragma once

#include <string>

#include "mst/platform/tree.hpp"
#include "mst/sim/platform_sim.hpp"

/// \file dispatch_render.hpp
/// ASCII timeline for tree dispatch plans — the tree analogue of
/// `render_gantt` (schedule/gantt.hpp).
///
/// Tree heuristics return destination sequences, not link-level timing
/// vectors, so the timeline is drawn from the operational replay
/// (`sim::simulate_dispatch`): a `port` row showing when each emission
/// occupies the master's out-port, then one row per slave node showing its
/// execution intervals.  Busy cells carry the task index modulo 10, '.' is
/// idle — the same visual conventions as the chain/spider Gantt.

namespace mst::sim {

/// Renders the replay of a dispatch plan on `tree`.  `run` must come from a
/// run on the same tree (`simulate_dispatch`, `drive_stream`,
/// `simulate_online`), so its destinations are in range.  `time_scale`
/// compresses the axis: one cell covers `time_scale` time units (>= 1);
/// cells covering any busy instant are marked.
std::string render_dispatch(const Tree& tree, const SimResult& run, Time time_scale = 1);

}  // namespace mst::sim
