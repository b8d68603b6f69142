#include "mst/baselines/asap.hpp"

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// Commits task `i` to the node `next` picks, filling its hop emissions and
/// start; returns the node.
template <typename Task>
NodeId place(TreeAsapState& state, const Workload& workload, std::size_t i,
             const NextNode& next, Task& task) {
  const Time size = workload.size_of(i);
  const Time release = workload.release_of(i);
  const NodeId node = next(state, i, size, release);
  task.emissions.resize(state.depth(node));
  const Time end = state.commit(node, size, release, task.emissions.data());
  task.start = end - size * state.proc(node).work;
  return node;
}

}  // namespace

ChainSchedule asap_chain_replay(const Chain& chain, const Workload& workload,
                                const NextNode& next) {
  TreeAsapState state(chain);
  ChainSchedule schedule{chain, std::vector<ChainTask>(workload.count())};
  for (std::size_t i = 0; i < workload.count(); ++i) {
    ChainTask& task = schedule.tasks[i];
    task.proc = place(state, workload, i, next, task) - 1;
  }
  return schedule;
}

SpiderSchedule asap_spider_replay(const Spider& spider, const Workload& workload,
                                  const NextNode& next) {
  TreeAsapState state(spider);
  std::vector<std::size_t> leg_of(1);  // node -> leg, in engine node order
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    leg_of.insert(leg_of.end(), spider.leg(l).size(), l);
  }
  SpiderSchedule schedule{spider, std::vector<SpiderTask>(workload.count())};
  for (std::size_t i = 0; i < workload.count(); ++i) {
    SpiderTask& task = schedule.tasks[i];
    task.leg = leg_of[place(state, workload, i, next, task)];
    task.proc = task.emissions.size() - 1;
  }
  return schedule;
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
