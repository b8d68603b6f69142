#include "mst/baselines/round_robin.hpp"

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

/// Task `i` goes to slave node `1 + i mod (number of slaves)`.
NodeId cyclic(const TreeAsapState& state, std::size_t i, Time, Time) {
  return 1 + i % (state.size() - 1);
}

}  // namespace

ChainSchedule round_robin_chain(const Chain& chain, std::size_t n) {
  return round_robin_chain(chain, Workload::identical(n));
}

SpiderSchedule round_robin_spider(const Spider& spider, std::size_t n) {
  return round_robin_spider(spider, Workload::identical(n));
}

ChainSchedule round_robin_chain(const Chain& chain, const Workload& workload) {
  return asap_chain_replay(chain, workload, cyclic);
}

SpiderSchedule round_robin_spider(const Spider& spider, const Workload& workload) {
  return asap_spider_replay(spider, workload, cyclic);
}

Time round_robin_chain_makespan(const Chain& chain, std::size_t n) {
  return round_robin_chain(chain, n).makespan();
}

Time round_robin_spider_makespan(const Spider& spider, std::size_t n) {
  return round_robin_spider(spider, n).makespan();
}

}  // namespace mst
