#include "mst/baselines/asap.hpp"

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

/// The body of both replays: `out` is a `ChainSchedule` on a `Chain`, a
/// `SpiderSchedule` on a `Spider`.
template <class Schedule, class Shape>
void replay_into(const Shape& shape, const Workload& workload, const NextNode& next,
                 TreeAsapState& state, Schedule& out) {
  using Task = typename decltype(Schedule::tasks)::value_type;
  state.assign(shape);
  if constexpr (kSpiderTask<Task>) {
    out.spider = shape;
  } else {
    out.chain = shape;
  }
  out.tasks.resize(workload.count());
  for (std::size_t i = 0; i < workload.count(); ++i) {
    // Commits task `i` to the node `next` picks, filling its hop emissions.
    Task& task = out.tasks[i];
    const Time size = workload.size_of(i);
    const Time release = workload.release_of(i);
    const NodeId node = next(state, i, size, release);
    task.emissions.resize(state.depth(node));
    const Time end = state.commit(node, size, release, task.emissions.data());
    task.start = end - size * state.proc(node).work;
    if constexpr (kSpiderTask<Task>) task.leg = state.leg(node);
    task.proc = task.emissions.size() - 1;
  }
}

}  // namespace

void asap_replay_into(const Chain& chain, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, ChainSchedule& out) {
  replay_into(chain, workload, next, state, out);
}

void asap_replay_into(const Spider& spider, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, SpiderSchedule& out) {
  replay_into(spider, workload, next, state, out);
}

ChainSchedule asap_chain_replay(const Chain& chain, const Workload& workload,
                                const NextNode& next) {
  TreeAsapState state;
  ChainSchedule out;
  asap_replay_into(chain, workload, next, state, out);
  return out;
}

SpiderSchedule asap_spider_replay(const Spider& spider, const Workload& workload,
                                  const NextNode& next) {
  TreeAsapState state;
  SpiderSchedule out;
  asap_replay_into(spider, workload, next, state, out);
  return out;
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
