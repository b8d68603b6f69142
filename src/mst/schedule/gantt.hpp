#pragma once

#include <string>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file gantt.hpp
/// ASCII Gantt rendering — the textual analogue of the paper's Fig 2.
///
/// One row per resource, time flowing left to right, one column per
/// `time_scale` units.  One body walks the legs (`legs.hpp`): a spider's
/// master-port row, then per leg its links and its processors, prefixed
/// `leg l ` — a chain is the one leg, unprefixed, with no master port.
/// Busy cells show the task index modulo 10; '.' is idle.  Example (the
/// paper's Fig 2 instance):
///
///     link 0  |0011223344.....|
///     link 1  |..00..11.......|
///     proc 0  |....2233344....|
///     proc 1  |.....000111....|

namespace mst {

/// Render a chain schedule.  `time_scale` compresses the axis: a cell covers
/// `time_scale` time units (>= 1).  Cells covering a busy instant are marked.
std::string render_gantt(const ChainSchedule& schedule, Time time_scale = 1);

/// Render a spider schedule.
std::string render_gantt(const SpiderSchedule& schedule, Time time_scale = 1);

}  // namespace mst
