#include "mst/baselines/forward_greedy.hpp"

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

NodeId earliest(TreeAsapState& state, std::size_t, Time size, Time release) {
  return state.earliest_completion(size, release);
}

}  // namespace

ChainSchedule forward_greedy(const Chain& chain, const Workload& workload) {
  return asap_chain_replay(chain, workload, earliest);
}

SpiderSchedule forward_greedy(const Spider& spider, const Workload& workload) {
  return asap_spider_replay(spider, workload, earliest);
}

Time forward_greedy(const Chain& chain, const Workload& workload, TreeAsapState& state,
                    ChainSchedule& out, const ReplayStop& stop) {
  return asap_replay_into(chain, workload, earliest, state, out, stop);
}

Time forward_greedy(const Spider& spider, const Workload& workload, TreeAsapState& state,
                    SpiderSchedule& out, const ReplayStop& stop) {
  return asap_replay_into(spider, workload, earliest, state, out, stop);
}

}  // namespace mst
