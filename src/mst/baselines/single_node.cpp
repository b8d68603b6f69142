#include "mst/baselines/single_node.hpp"

#include "mst/baselines/asap.hpp"
#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// The single-node pipeline with the smallest makespan over the `slaves`
/// engine nodes of `platform`, ties toward the smaller node.
template <typename Schedule, typename Platform>
Schedule best_pipeline(const Platform& platform, std::size_t slaves, const Workload& workload) {
  MST_REQUIRE(workload.count() >= 1, "need at least one task");
  Schedule best{platform, {}};
  Time best_makespan = 0;
  for (NodeId v = 1; v <= slaves; ++v) {
    Schedule candidate = detail::asap_replay<Schedule>(
        platform, workload, [v](const TreeAsapState&, std::size_t, Time, Time) { return v; });
    const Time m = candidate.makespan(workload);
    if (v == 1 || m < best_makespan) {
      best_makespan = m;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace

ChainSchedule single_node(const Chain& chain, const Workload& workload) {
  return best_pipeline<ChainSchedule>(chain, chain.size(), workload);
}

SpiderSchedule single_node(const Spider& spider, const Workload& workload) {
  return best_pipeline<SpiderSchedule>(spider, spider.num_processors(), workload);
}

}  // namespace mst
