#pragma once

#include "mst/baselines/asap.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file forward_greedy.hpp
/// `forward_greedy(shape, workload)`: earliest-completion-time list
/// scheduling on a chain or a spider — the natural *forward* heuristic the
/// paper's backward construction competes against.  A fork runs as its
/// unit-leg spider (`Spider::from_fork`).
///
/// Tasks are dispatched one at a time; each picks the destination whose
/// ASAP completion time is smallest (ties toward the nearer processor).
/// This is what a master-worker runtime with perfect platform knowledge but
/// no lookahead would do.  It is feasible by construction but not optimal:
/// the HEUR experiment quantifies the gap against the paper's algorithm.

namespace mst {

/// Tasks are dispatched in canonical workload order, each picking the
/// destination with the earliest size-scaled, release-gated ASAP completion;
/// `Workload::identical(n)` gives the identical-task schedule.
ChainSchedule forward_greedy(const Chain& chain, const Workload& workload);
SpiderSchedule forward_greedy(const Spider& spider, const Workload& workload);

/// The same schedule rebuilt into `out` on `state`'s buffers
/// (`asap_replay_into`), returning its makespan: allocation-free once both
/// are warm.  The policy is prefix-stable, so a deadline `stop` gives its
/// decision form in the same one replay.
Time forward_greedy(const Chain& chain, const Workload& workload, TreeAsapState& state,
                    ChainSchedule& out, const ReplayStop& stop = {});
Time forward_greedy(const Spider& spider, const Workload& workload, TreeAsapState& state,
                    SpiderSchedule& out, const ReplayStop& stop = {});

}  // namespace mst
