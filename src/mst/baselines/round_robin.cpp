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

}  // namespace mst
