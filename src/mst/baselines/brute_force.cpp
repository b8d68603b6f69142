#include "mst/baselines/brute_force.hpp"

#include <vector>

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

/// The first optimal node sequence of `n` tasks the search finds.
template <typename Platform>
std::vector<NodeId> optimal_sequence(const Platform& platform, std::size_t n) {
  TreeAsapState state(platform);
  std::vector<NodeId> best;
  brute_force_makespan(state, n, &best);
  return best;
}

/// Replays `nodes` in order.
NextNode follow(const std::vector<NodeId>& nodes) {
  return [&nodes](const TreeAsapState&, std::size_t i, Time, Time) { return nodes[i]; };
}

}  // namespace

Time brute_force_makespan(const Chain& chain, std::size_t n) {
  TreeAsapState state(chain);
  return brute_force_makespan(state, n);
}

Time brute_force_makespan(const Spider& spider, std::size_t n) {
  TreeAsapState state(spider);
  return brute_force_makespan(state, n);
}

ChainSchedule brute_force_schedule(const Chain& chain, std::size_t n) {
  const std::vector<NodeId> best = optimal_sequence(chain, n);
  return asap_chain_replay(chain, Workload::identical(n), follow(best));
}

SpiderSchedule brute_force_schedule(const Spider& spider, std::size_t n) {
  const std::vector<NodeId> best = optimal_sequence(spider, n);
  return asap_spider_replay(spider, Workload::identical(n), follow(best));
}

}  // namespace mst
