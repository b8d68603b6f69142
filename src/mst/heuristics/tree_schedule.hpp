#pragma once

#include <cstddef>
#include <vector>

#include "mst/common/time.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/tree.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file tree_schedule.hpp
/// Scheduling on general trees (the paper's open problem) via the spider
/// cover: plan optimally on the covering spider, then execute the planned
/// destination sequence on the real tree.  Because the cover is a
/// sub-platform, the plan is feasible as-is, and the resulting makespan is
/// an upper bound witness for the tree optimum.

namespace mst {

/// Outcome of the cover-and-schedule heuristic.
struct TreeScheduleResult {
  Time makespan = 0;
  /// Tree node executing each task, in master-emission order.  Replaying it
  /// on the tree simulator (`sim::simulate_dispatch`) yields the same
  /// makespan or better — eager forwarding may only move work earlier.
  std::vector<NodeId> destinations;
};

/// Reusable buffers for `schedule_tree_via_cover_into`: the covering-spider
/// solve scratch and the pooled plan/order working sets.  With warm buffers
/// the per-solve allocation count is independent of the task count `n`
/// (only tree-shaped temporaries, such as the cover itself, remain).
struct TreeCoverScratch {
  SpiderSolveScratch spider;        ///< covering-spider materialization
  SpiderSchedule plan;              ///< pooled spider plan
  std::vector<std::size_t> order;   ///< emission-order index sort
};

/// Schedule `n` tasks on `tree` through the spider cover.
TreeScheduleResult schedule_tree_via_cover(const Tree& tree, std::size_t n);

/// Scratch-reusing twin: identical destinations and makespan, rebuilding
/// `destinations` in place (capacity reused).
void schedule_tree_via_cover_into(const Tree& tree, std::size_t n, TreeCoverScratch& scratch,
                                  std::vector<NodeId>& destinations, Time& makespan);

}  // namespace mst
