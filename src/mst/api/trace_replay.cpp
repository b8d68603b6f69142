#include "mst/api/trace_replay.hpp"

#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst::api {

namespace {

struct ReplayVisitor {
  const SolveResult& result;
  const obs::Observation& observation;

  /// Dispatches each task to its node of `tree`, the embedding of `legs`:
  /// leg `l` processor `d` is node `1 + sum(len of legs < l) + d`.
  template <class Task>
  sim::SimResult dispatch_legs(const Tree& tree, std::span<const Chain> legs,
                               const std::vector<Task>& tasks) const {
    std::vector<NodeId> dests;
    dests.reserve(tasks.size());
    for (const Task& task : tasks) {
      const std::size_t l = leg_of(task);
      // A spider's task must stay in its leg; a stray chain destination is
      // no slave node, which the simulator rejects.
      if constexpr (kSpiderTask<Task>) {
        MST_REQUIRE(l < legs.size(), "leg index out of range");
        MST_REQUIRE(task.proc < legs[l].size(), "destination outside its spider leg");
      }
      NodeId node = 1 + task.proc;
      for (std::size_t k = 0; k < l; ++k) node += legs[k].size();
      dests.push_back(node);
    }
    return sim::simulate_dispatch(tree, dests, result.workload, observation);
  }

  sim::SimResult operator()(const std::monostate&) const {
    throw std::invalid_argument(
        "replay_schedule: result carries no materialized schedule (solve with "
        "options.materialize = true)");
  }

  sim::SimResult operator()(const ChainSchedule& schedule) const {
    return dispatch_legs(tree_from_chain(schedule.chain), legs_of(schedule.chain), schedule.tasks);
  }

  sim::SimResult operator()(const SpiderSchedule& schedule) const {
    return dispatch_legs(tree_from_spider(schedule.spider), legs_of(schedule.spider),
                         schedule.tasks);
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
