#include "mst/baselines/brute_force.hpp"

#include <vector>

#include "mst/baselines/asap.hpp"

namespace mst {

namespace {

/// The exact optimum of `n` identical tasks on the shape's engine nodes;
/// `best` receives the first optimal node sequence the search finds.
template <typename Shape>
Time exact_makespan(const Shape& shape, std::size_t n, std::vector<NodeId>* best = nullptr) {
  TreeAsapState state(shape);
  return brute_force_makespan(state, n, best);
}

/// The ASAP schedule of that first optimal sequence.
template <typename Schedule, typename Shape>
Schedule exact_schedule(const Shape& shape, std::size_t n) {
  std::vector<NodeId> best;
  exact_makespan(shape, n, &best);
  TreeAsapState state;
  Schedule out;
  asap_replay_into(
      shape, Workload::identical(n),
      [&best](const TreeAsapState&, std::size_t i, Time, Time) { return best[i]; }, state, out);
  return out;
}

}  // namespace

Time brute_force_makespan(const Chain& chain, std::size_t n) { return exact_makespan(chain, n); }

Time brute_force_makespan(const Spider& spider, std::size_t n) {
  return exact_makespan(spider, n);
}

ChainSchedule brute_force_schedule(const Chain& chain, std::size_t n) {
  return exact_schedule<ChainSchedule>(chain, n);
}

SpiderSchedule brute_force_schedule(const Spider& spider, std::size_t n) {
  return exact_schedule<SpiderSchedule>(spider, n);
}

}  // namespace mst
