#include "mst/baselines/single_node.hpp"

#include <vector>

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"

namespace mst {

ChainSchedule single_node_chain(const Chain& chain, std::size_t n) {
  return single_node_chain(chain, Workload::identical(n));
}

Time single_node_chain_makespan(const Chain& chain, std::size_t n) {
  return single_node_chain(chain, n).makespan();
}

SpiderSchedule single_node_spider(const Spider& spider, std::size_t n) {
  return single_node_spider(spider, Workload::identical(n));
}

Time single_node_spider_makespan(const Spider& spider, std::size_t n) {
  return single_node_spider(spider, n).makespan();
}

ChainSchedule single_node_chain(const Chain& chain, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  ChainSchedule best{chain, {}};
  Time best_makespan = kTimeInfinity;
  for (std::size_t q = 0; q < chain.size(); ++q) {
    ChainSchedule candidate =
        asap_chain_schedule(chain, std::vector<std::size_t>(workload.count(), q), workload);
    const Time m = candidate.makespan();
    if (m < best_makespan) {
      best_makespan = m;
      best = std::move(candidate);
    }
  }
  return best;
}

SpiderSchedule single_node_spider(const Spider& spider, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  SpiderSchedule best{spider, {}};
  Time best_makespan = kTimeInfinity;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    for (std::size_t q = 0; q < spider.leg(l).size(); ++q) {
      SpiderSchedule candidate = asap_spider_schedule(
          spider, std::vector<SpiderDest>(workload.count(), SpiderDest{l, q}), workload);
      const Time m = candidate.makespan();
      if (m < best_makespan) {
        best_makespan = m;
        best = std::move(candidate);
      }
    }
  }
  return best;
}

}  // namespace mst
