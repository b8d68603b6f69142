#include "mst/baselines/single_node.hpp"

#include <algorithm>

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// The single-node pipeline with the smallest makespan over the `slaves`
/// engine nodes of `platform`, ties toward the smaller node, into `out`.
/// Candidates are scored on the engine state by commits alone (a
/// pipeline's makespan is its largest commit end); only the winner is built
/// as a schedule.
template <typename Platform, typename Schedule>
void best_pipeline(const Platform& platform, std::size_t slaves, const Workload& workload,
                   TreeAsapState& state, Schedule& out) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  state.assign(platform);
  NodeId best = 1;
  Time best_makespan = 0;
  for (NodeId v = 1; v <= slaves; ++v) {
    state.reset();
    Time makespan = 0;
    for (std::size_t i = 0; i < workload.count(); ++i) {
      makespan = std::max(makespan, state.commit(v, workload.size_of(i), workload.release_of(i)));
    }
    if (v == 1 || makespan < best_makespan) {
      best = v;
      best_makespan = makespan;
    }
  }
  asap_replay_into(
      platform, workload, [best](const TreeAsapState&, std::size_t, Time, Time) { return best; },
      state, out);
}

}  // namespace

void single_node(const Chain& chain, const Workload& workload, TreeAsapState& state,
                 ChainSchedule& out) {
  best_pipeline(chain, chain.size(), workload, state, out);
}

void single_node(const Spider& spider, const Workload& workload, TreeAsapState& state,
                 SpiderSchedule& out) {
  best_pipeline(spider, spider.num_processors(), workload, state, out);
}

ChainSchedule single_node(const Chain& chain, const Workload& workload) {
  TreeAsapState state;
  ChainSchedule out;
  single_node(chain, workload, state, out);
  return out;
}

SpiderSchedule single_node(const Spider& spider, const Workload& workload) {
  TreeAsapState state;
  SpiderSchedule out;
  single_node(spider, workload, state, out);
  return out;
}

}  // namespace mst
