#include "mst/baselines/asap.hpp"

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

template <class Schedule, class Shape>
Schedule detail::asap_replay(const Shape& shape, const Workload& workload, const NextNode& next) {
  using Task = typename decltype(Schedule::tasks)::value_type;
  TreeAsapState state(shape);
  std::vector<std::size_t> leg_of_node;  // a spider's node -> leg, in engine node order
  if constexpr (kSpiderTask<Task>) {
    leg_of_node.assign(1, 0);
    for (std::size_t l = 0; l < shape.num_legs(); ++l) {
      leg_of_node.insert(leg_of_node.end(), shape.leg(l).size(), l);
    }
  }
  Schedule schedule{shape, std::vector<Task>(workload.count())};
  for (std::size_t i = 0; i < workload.count(); ++i) {
    // Commits task `i` to the node `next` picks, filling its hop emissions.
    Task& task = schedule.tasks[i];
    const Time size = workload.size_of(i);
    const Time release = workload.release_of(i);
    const NodeId node = next(state, i, size, release);
    task.emissions.resize(state.depth(node));
    const Time end = state.commit(node, size, release, task.emissions.data());
    task.start = end - size * state.proc(node).work;
    if constexpr (kSpiderTask<Task>) task.leg = leg_of_node[node];
    task.proc = task.emissions.size() - 1;
  }
  return schedule;
}

template ChainSchedule detail::asap_replay(const Chain&, const Workload&, const NextNode&);
template SpiderSchedule detail::asap_replay(const Spider&, const Workload&, const NextNode&);

ChainSchedule asap_chain_replay(const Chain& chain, const Workload& workload,
                                const NextNode& next) {
  return detail::asap_replay<ChainSchedule>(chain, workload, next);
}

SpiderSchedule asap_spider_replay(const Spider& spider, const Workload& workload,
                                  const NextNode& next) {
  return detail::asap_replay<SpiderSchedule>(spider, workload, next);
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests) {
  return asap_chain_schedule(chain, dests, Workload::identical(dests.size()));
}

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  return asap_chain_replay(chain, workload, [&](const TreeAsapState&, std::size_t i, Time, Time) {
    MST_REQUIRE(dests[i] < chain.size(), "destination outside the chain");
    return dests[i] + 1;
  });
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests) {
  return asap_spider_schedule(spider, dests, Workload::identical(dests.size()));
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  return asap_spider_replay(spider, workload,
                            [&](const TreeAsapState&, std::size_t i, Time, Time) {
                              return spider_node(spider, dests[i]);
                            });
}

}  // namespace mst
