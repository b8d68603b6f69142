#include "mst/baselines/round_robin.hpp"

#include <vector>

#include "mst/baselines/asap.hpp"

namespace mst {

ChainSchedule round_robin_chain(const Chain& chain, std::size_t n) {
  return round_robin_chain(chain, Workload::identical(n));
}

SpiderSchedule round_robin_spider(const Spider& spider, std::size_t n) {
  return round_robin_spider(spider, Workload::identical(n));
}

ChainSchedule round_robin_chain(const Chain& chain, const Workload& workload) {
  std::vector<std::size_t> dests(workload.count());
  for (std::size_t i = 0; i < dests.size(); ++i) dests[i] = i % chain.size();
  return asap_chain_schedule(chain, dests, workload);
}

SpiderSchedule round_robin_spider(const Spider& spider, const Workload& workload) {
  std::vector<SpiderDest> all;
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    for (std::size_t q = 0; q < spider.leg(l).size(); ++q) all.push_back({l, q});
  }
  std::vector<SpiderDest> dests(workload.count());
  for (std::size_t i = 0; i < dests.size(); ++i) dests[i] = all[i % all.size()];
  return asap_spider_schedule(spider, dests, workload);
}

Time round_robin_chain_makespan(const Chain& chain, std::size_t n) {
  return round_robin_chain(chain, n).makespan();
}

Time round_robin_spider_makespan(const Spider& spider, std::size_t n) {
  return round_robin_spider(spider, n).makespan();
}

}  // namespace mst
