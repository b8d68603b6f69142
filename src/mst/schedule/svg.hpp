#pragma once

#include <string>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file svg.hpp
/// Standalone SVG Gantt charts (no external renderer needed): one lane per
/// resource, one rectangle per communication or execution, tasks colored by
/// index.  Produces figures equivalent to the paper's Fig 2 drawing.  Lanes
/// follow the legs as in `gantt.hpp`, a spider's prefixed `L<l> `.

namespace mst {

/// Options controlling the rendered geometry.
struct SvgOptions {
  double px_per_time = 24.0;  ///< horizontal pixels per time unit
  double lane_height = 22.0;  ///< vertical pixels per resource lane
  bool show_labels = true;    ///< draw task indices inside the boxes
};

std::string render_svg(const ChainSchedule& schedule, const SvgOptions& options = {});
std::string render_svg(const SpiderSchedule& schedule, const SvgOptions& options = {});

}  // namespace mst
