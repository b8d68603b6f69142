#include "mst/baselines/forward_greedy.hpp"

#include "mst/baselines/asap.hpp"

namespace mst {

ChainSchedule forward_greedy_chain(const Chain& chain, std::size_t n) {
  return forward_greedy_chain(chain, Workload::identical(n));
}

SpiderSchedule forward_greedy_spider(const Spider& spider, std::size_t n) {
  return forward_greedy_spider(spider, Workload::identical(n));
}

ChainSchedule forward_greedy_chain(const Chain& chain, const Workload& workload) {
  ChainAsapState state(chain);
  ChainSchedule schedule{chain, {}};
  schedule.tasks.reserve(workload.count());
  for (std::size_t i = 0; i < workload.count(); ++i) {
    const Time size = workload.size_of(i);
    const Time release = workload.release_of(i);
    std::size_t best_dest = 0;
    Time best_completion = kTimeInfinity;
    for (std::size_t dest = 0; dest < chain.size(); ++dest) {
      const Time completion = state.peek_completion(dest, size, release);
      if (completion < best_completion) {
        best_completion = completion;
        best_dest = dest;
      }
    }
    schedule.tasks.push_back(state.commit(best_dest, size, release));
  }
  return schedule;
}

SpiderSchedule forward_greedy_spider(const Spider& spider, const Workload& workload) {
  SpiderAsapState state(spider);
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(workload.count());
  for (std::size_t i = 0; i < workload.count(); ++i) {
    const Time size = workload.size_of(i);
    const Time release = workload.release_of(i);
    SpiderDest best_dest{0, 0};
    Time best_completion = kTimeInfinity;
    for (std::size_t l = 0; l < spider.num_legs(); ++l) {
      for (std::size_t q = 0; q < spider.leg(l).size(); ++q) {
        const Time completion = state.peek_completion({l, q}, size, release);
        if (completion < best_completion) {
          best_completion = completion;
          best_dest = {l, q};
        }
      }
    }
    schedule.tasks.push_back(state.commit(best_dest, size, release));
  }
  return schedule;
}

Time forward_greedy_chain_makespan(const Chain& chain, std::size_t n) {
  return forward_greedy_chain(chain, n).makespan();
}

Time forward_greedy_spider_makespan(const Spider& spider, std::size_t n) {
  return forward_greedy_spider(spider, n).makespan();
}

}  // namespace mst
