#include "mst/baselines/asap.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

// ---------------------------------------------------------------------------
// Chain
// ---------------------------------------------------------------------------

ChainAsapState::ChainAsapState(const Chain& chain)
    : chain_(chain), link_free_(chain.size(), 0), proc_free_(chain.size(), 0) {}

Time ChainAsapState::peek_completion(std::size_t dest, Time size, Time release) const {
  MST_REQUIRE(dest < chain_.size(), "destination outside the chain");
  Time emission = std::max(link_free_[0], release);
  for (std::size_t k = 1; k <= dest; ++k) {
    emission = std::max(emission + size * chain_.comm(k - 1), link_free_[k]);
  }
  const Time arrival = emission + size * chain_.comm(dest);
  const Time start = std::max(arrival, proc_free_[dest]);
  return start + size * chain_.work(dest);
}

ChainTask ChainAsapState::commit(std::size_t dest, Time size, Time release) {
  MST_REQUIRE(dest < chain_.size(), "destination outside the chain");
  ChainTask task;
  task.proc = dest;
  task.emissions.resize(dest + 1);
  Time emission = std::max(link_free_[0], release);
  task.emissions[0] = emission;
  for (std::size_t k = 1; k <= dest; ++k) {
    emission = std::max(emission + size * chain_.comm(k - 1), link_free_[k]);
    task.emissions[k] = emission;
  }
  for (std::size_t k = 0; k <= dest; ++k) {
    link_free_[k] = task.emissions[k] + size * chain_.comm(k);
  }
  const Time arrival = task.emissions[dest] + size * chain_.comm(dest);
  task.start = std::max(arrival, proc_free_[dest]);
  proc_free_[dest] = task.start + size * chain_.work(dest);
  return task;
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests) {
  return asap_chain_schedule(chain, dests, Workload::identical(dests.size()));
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  ChainAsapState state(chain);
  ChainSchedule schedule{chain, {}};
  schedule.tasks.reserve(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    schedule.tasks.push_back(
        state.commit(dests[i], workload.size_of(i), workload.release_of(i)));
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Spider
// ---------------------------------------------------------------------------

SpiderAsapState::SpiderAsapState(const Spider& spider) {
  legs_.reserve(spider.num_legs());
  for (std::size_t l = 0; l < spider.num_legs(); ++l) legs_.emplace_back(spider.leg(l));
}

// A leg is a chain whose first emission also waits for the master's
// one-port, which serializes first emissions across legs: the port bound
// folds into the release argument of the leg's chain state.
Time SpiderAsapState::peek_completion(const SpiderDest& dest, Time size, Time release) const {
  MST_REQUIRE(dest.leg < legs_.size(), "leg outside the spider");
  return legs_[dest.leg].peek_completion(dest.proc, size, std::max(port_free_, release));
}

SpiderTask SpiderAsapState::commit(const SpiderDest& dest, Time size, Time release) {
  MST_REQUIRE(dest.leg < legs_.size(), "leg outside the spider");
  ChainAsapState& leg = legs_[dest.leg];
  ChainTask placed = leg.commit(dest.proc, size, std::max(port_free_, release));
  port_free_ = placed.emissions[0] + size * leg.chain().comm(0);
  SpiderTask task;
  task.leg = dest.leg;
  task.proc = dest.proc;
  task.start = placed.start;
  task.emissions = std::move(placed.emissions);
  return task;
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests) {
  return asap_spider_schedule(spider, dests, Workload::identical(dests.size()));
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  SpiderAsapState state(spider);
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    schedule.tasks.push_back(
        state.commit(dests[i], workload.size_of(i), workload.release_of(i)));
  }
  return schedule;
}

}  // namespace mst
