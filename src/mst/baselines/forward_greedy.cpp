#include "mst/baselines/forward_greedy.hpp"

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

NodeId earliest(const TreeAsapState& state, std::size_t, Time size, Time release) {
  return state.earliest_completion(size, release);
}

}  // namespace

ChainSchedule forward_greedy_chain(const Chain& chain, std::size_t n) {
  return forward_greedy_chain(chain, Workload::identical(n));
}

SpiderSchedule forward_greedy_spider(const Spider& spider, std::size_t n) {
  return forward_greedy_spider(spider, Workload::identical(n));
}

ChainSchedule forward_greedy_chain(const Chain& chain, const Workload& workload) {
  return asap_chain_replay(chain, workload, earliest);
}

SpiderSchedule forward_greedy_spider(const Spider& spider, const Workload& workload) {
  return asap_spider_replay(spider, workload, earliest);
}

Time forward_greedy_chain_makespan(const Chain& chain, std::size_t n) {
  return forward_greedy_chain(chain, n).makespan();
}

Time forward_greedy_spider_makespan(const Spider& spider, std::size_t n) {
  return forward_greedy_spider(spider, n).makespan();
}

}  // namespace mst
