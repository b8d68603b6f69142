#include "mst/baselines/round_robin.hpp"

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

/// Task `i` goes to slave node `1 + i mod (number of slaves)`.
NodeId cyclic(const TreeAsapState& state, std::size_t i, Time, Time) {
  return 1 + i % (state.size() - 1);
}

}  // namespace

ChainSchedule round_robin(const Chain& chain, const Workload& workload) {
  return asap_chain_replay(chain, workload, cyclic);
}

SpiderSchedule round_robin(const Spider& spider, const Workload& workload) {
  return asap_spider_replay(spider, workload, cyclic);
}

Time round_robin(const Chain& chain, const Workload& workload, TreeAsapState& state,
                 ChainSchedule& out, const ReplayStop& stop) {
  return asap_replay_into(chain, workload, cyclic, state, out, stop);
}

Time round_robin(const Spider& spider, const Workload& workload, TreeAsapState& state,
                 SpiderSchedule& out, const ReplayStop& stop) {
  return asap_replay_into(spider, workload, cyclic, state, out, stop);
}

}  // namespace mst
