#include "mst/api/trace_replay.hpp"

#include <stdexcept>
#include <variant>
#include <vector>

namespace mst::api {

namespace {

struct ReplayVisitor {
  const SolveResult& result;
  const obs::Observation& observation;

  sim::SimResult operator()(const std::monostate&) const {
    throw std::invalid_argument(
        "replay_schedule: result carries no materialized schedule (solve with "
        "options.materialize = true)");
  }

  sim::SimResult operator()(const ChainSchedule& schedule) const {
    std::vector<NodeId> dests;
    dests.reserve(schedule.tasks.size());
    for (const ChainTask& task : schedule.tasks) {
      dests.push_back(static_cast<NodeId>(task.proc + 1));
    }
    return sim::simulate_dispatch(tree_from_chain(schedule.chain), dests, result.workload,
                                  observation);
  }

  sim::SimResult operator()(const SpiderSchedule& schedule) const {
    std::vector<NodeId> dests;
    dests.reserve(schedule.tasks.size());
    for (const SpiderTask& task : schedule.tasks) {
      dests.push_back(spider_node(schedule.spider, {task.leg, task.proc}));
    }
    return sim::simulate_dispatch(tree_from_spider(schedule.spider), dests, result.workload,
                                  observation);
  }

  sim::SimResult operator()(const TreeDispatch& dispatch) const {
    return sim::simulate_dispatch(dispatch.tree, dispatch.dests, result.workload, observation);
  }
};

}  // namespace

sim::SimResult replay_schedule(const SolveResult& result, const obs::Observation& observation) {
  return std::visit(ReplayVisitor{result, observation}, result.schedule);
}

}  // namespace mst::api
