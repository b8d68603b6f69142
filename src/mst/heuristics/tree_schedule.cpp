#include "mst/heuristics/tree_schedule.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/tree_cover.hpp"
#include "mst/schedule/spider_schedule.hpp"

namespace mst {

void schedule_tree_via_cover_into(const Tree& tree, std::size_t n, TreeCoverScratch& scratch,
                                  std::vector<NodeId>& destinations, Time& makespan) {
  MST_REQUIRE(n >= 1, "need at least one task");
  const SpiderCover cover = cover_tree_with_spider(tree);
  SpiderScheduler::schedule_into(cover.spider, Workload::identical(n), scratch.spider,
                                 scratch.plan);
  const SpiderSchedule& plan = scratch.plan;

  // Destination sequence in master-emission order (the planner already
  // keeps tasks sorted by first emission).
  makespan = plan.makespan();
  destinations.clear();
  scratch.order.resize(plan.tasks.size());
  for (std::size_t i = 0; i < scratch.order.size(); ++i) scratch.order[i] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&plan](std::size_t a, std::size_t b) {
              return plan.tasks[a].emissions.front() < plan.tasks[b].emissions.front();
            });
  for (std::size_t idx : scratch.order) {
    const SpiderTask& t = plan.tasks[idx];
    destinations.push_back(cover.node_of[t.leg][t.proc]);
  }
}

TreeScheduleResult schedule_tree_via_cover(const Tree& tree, std::size_t n) {
  TreeCoverScratch scratch;
  TreeScheduleResult result;
  result.destinations.reserve(n);
  schedule_tree_via_cover_into(tree, n, scratch, result.destinations, result.makespan);
  return result;
}

}  // namespace mst
