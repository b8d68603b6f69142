#pragma once

#include "mst/baselines/tree_asap.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file single_node.hpp
/// `single_node(shape, workload)`: the best-single-processor baseline on a
/// chain or a spider — the generalization of the paper's `T∞`.  A fork runs
/// as its unit-leg spider (`Spider::from_fork`).
///
/// All `n` tasks are pipelined to one processor; the best such processor is
/// chosen by exact evaluation.  The paper's `T∞ = c_1 + (n-1)·max(w_1,c_1)
/// + w_1` is the first-processor member of this family and anchors the
/// backward construction; the baseline is also a correct (if weak) upper
/// bound on the optimum, used as the horizon in several experiments.

namespace mst {

/// The whole workload pipelines to the single processor (over every leg of
/// a spider) minimizing the size-scaled, release-gated ASAP makespan, ties
/// toward the nearer processor.
ChainSchedule single_node(const Chain& chain, const Workload& workload);
SpiderSchedule single_node(const Spider& spider, const Workload& workload);

/// The same schedule rebuilt into `out` on `state`'s buffers
/// (`asap_replay_into`): allocation-free once both are warm.
void single_node(const Chain& chain, const Workload& workload, TreeAsapState& state,
                 ChainSchedule& out);
void single_node(const Spider& spider, const Workload& workload, TreeAsapState& state,
                 SpiderSchedule& out);

}  // namespace mst
