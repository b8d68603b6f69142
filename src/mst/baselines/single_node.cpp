#include "mst/baselines/single_node.hpp"

#include <algorithm>

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// The single-node pipeline with the smallest makespan over the `slaves`
/// engine nodes of `platform`, ties toward the smaller node.  Candidates
/// are scored on one engine state by commits alone (a pipeline's makespan
/// is its largest commit end); only the winner is built as a schedule.
template <typename Schedule, typename Platform>
Schedule best_pipeline(const Platform& platform, std::size_t slaves, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  TreeAsapState state(platform);
  NodeId best = 1;
  Time best_makespan = 0;
  for (NodeId v = 1; v <= slaves; ++v) {
    state.reset();
    Time makespan = 0;
    for (std::size_t i = 0; i < workload.count(); ++i) {
      makespan = std::max(makespan, state.commit(v, workload.size_of(i), workload.release_of(i)));
    }
    if (v == 1 || makespan < best_makespan) {
      best = v;
      best_makespan = makespan;
    }
  }
  return detail::asap_replay<Schedule>(
      platform, workload, [best](const TreeAsapState&, std::size_t, Time, Time) { return best; });
}

}  // namespace

ChainSchedule single_node(const Chain& chain, const Workload& workload) {
  return best_pipeline<ChainSchedule>(chain, chain.size(), workload);
}

SpiderSchedule single_node(const Spider& spider, const Workload& workload) {
  return best_pipeline<SpiderSchedule>(spider, spider.num_processors(), workload);
}

}  // namespace mst
