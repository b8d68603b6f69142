#include "mst/baselines/asap.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

/// The body of both replays: `out` is a `ChainSchedule` on a `Chain`, a
/// `SpiderSchedule` on a `Spider`.
template <class Schedule, class Shape>
Time replay_into(const Shape& shape, const Workload& workload, const NextNode& next,
                 TreeAsapState& state, Schedule& out, const ReplayStop& stop) {
  using Task = typename decltype(Schedule::tasks)::value_type;
  state.assign(shape);
  if constexpr (kSpiderTask<Task>) {
    out.spider = shape;
  } else {
    out.chain = shape;
  }
  const std::size_t limit = std::min(stop.limit, workload.count());
  std::size_t kept = 0;
  Time makespan = 0;
  for (; kept < limit; ++kept) {
    // Commits task `kept` to the node `next` picks; once it is known to
    // complete by the deadline, its slot is grown and its hops read back.
    const Time size = workload.size_of(kept);
    const Time release = workload.release_of(kept);
    const NodeId node = next(state, kept, size, release);
    const Time end = state.commit(node, size, release);
    if (end > stop.deadline) break;
    makespan = std::max(makespan, end);
    if (kept == out.tasks.size()) out.tasks.emplace_back();
    Task& task = out.tasks[kept];
    task.emissions.resize(state.depth(node));
    state.hop_emissions(node, size, task.emissions.data());
    task.start = end - size * state.proc(node).work;
    if constexpr (kSpiderTask<Task>) task.leg = state.leg(node);
    task.proc = task.emissions.size() - 1;
  }
  out.tasks.resize(kept);
  return makespan;
}

}  // namespace

Time asap_replay_into(const Chain& chain, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, ChainSchedule& out, const ReplayStop& stop) {
  return replay_into(chain, workload, next, state, out, stop);
}

Time asap_replay_into(const Spider& spider, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, SpiderSchedule& out, const ReplayStop& stop) {
  return replay_into(spider, workload, next, state, out, stop);
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

ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  return asap_chain_replay(chain, workload, [&](TreeAsapState&, std::size_t i, Time, Time) {
    MST_REQUIRE(dests[i] < chain.size(), "destination outside the chain");
    return dests[i] + 1;
  });
}

SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload) {
  MST_REQUIRE(workload.count() == dests.size(),
              "workload and destination sequence must have the same length");
  return asap_spider_replay(spider, workload,
                            [&](TreeAsapState&, std::size_t i, Time, Time) {
                              return spider_node(spider, dests[i]);
                            });
}

}  // namespace mst
