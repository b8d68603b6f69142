#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file asap.hpp
/// Chain and spider schedules of a destination sequence, timed forward as
/// soon as possible by the engine of `tree_asap.hpp`: one replay body for
/// both, a chain being the one-leg spider whose tasks carry no leg.
///
/// Given the ordered list of destinations (the order tasks leave the
/// master), every emission, hop and execution is placed at its earliest
/// feasible time, FIFO per link and per processor; the master's one-port
/// serializes the first emissions of a spider's legs.
///
/// Every entry point also has a workload-aware form: task `i` of the
/// dispatch order carries size `s_i` (scaling each hop to `s_i·c_k` and the
/// execution to `s_i·w_k`) and release date `r_i` (its first emission starts
/// no earlier than `r_i`).  The unit/zero defaults reproduce the identical
/// arithmetic exactly.

namespace mst {

/// ASAP schedule of the given chain destination sequence (`dest[i]` is the
/// 0-based destination processor of the i-th emitted task): task `i` has
/// `workload.size_of(i)` / `workload.release_of(i)`; requires
/// `workload.count() == dests.size()` (`Workload::identical` for the
/// paper's identical tasks).
ChainSchedule asap_chain_schedule(const Chain& chain, const std::vector<std::size_t>& dests,
                                  const Workload& workload);

/// ASAP schedule of the given spider destination sequence, as above.
SpiderSchedule asap_spider_schedule(const Spider& spider, const std::vector<SpiderDest>& dests,
                                    const Workload& workload);

/// Picks the engine node that task `i` of the workload (of the given size
/// and release date) is sent to, from the state before it is placed.  The
/// state is not const only so the earliest-completion choice can use its
/// buffer; a policy commits nothing.
using NextNode =
    std::function<NodeId(TreeAsapState& state, std::size_t i, Time size, Time release)>;

/// Where a replay stops: after `limit` tasks of its workload, or before the
/// first task that would complete after `deadline`.  The defaults replay
/// the whole workload.
struct ReplayStop {
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  Time deadline = kNoDeadline;
};

/// Dispatches `workload` in order, task `i` to the node `next` picks, and
/// returns the schedule the engine times: the one replay behind every
/// chain and spider baseline.
ChainSchedule asap_chain_replay(const Chain& chain, const Workload& workload,
                                const NextNode& next);
SpiderSchedule asap_spider_replay(const Spider& spider, const Workload& workload,
                                  const NextNode& next);

/// The same replay rebuilt into `out` on `state`, returning its makespan:
/// both keep their buffers, so once they have held a platform and a
/// workload this large the replay allocates nothing (the registry's
/// baselines run on its pooled schedules).  The schedule grows as tasks
/// are kept, so a `stop` far beyond them costs nothing.  For a
/// prefix-stable policy (its `k`-task run is the first `k` tasks of any
/// longer run) a deadline stop answers the decision form: `out` holds the
/// most tasks its runs complete by the deadline.
Time asap_replay_into(const Chain& chain, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, ChainSchedule& out, const ReplayStop& stop = {});
Time asap_replay_into(const Spider& spider, const Workload& workload, const NextNode& next,
                      TreeAsapState& state, SpiderSchedule& out, const ReplayStop& stop = {});

}  // namespace mst
