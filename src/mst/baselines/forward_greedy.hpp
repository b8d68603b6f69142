#pragma once

#include <cstddef>

#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file forward_greedy.hpp
/// Earliest-completion-time list scheduling — the natural *forward*
/// heuristic the paper's backward construction competes against.
///
/// Tasks are dispatched one at a time; each picks the destination whose
/// ASAP completion time is smallest (ties toward the nearer processor).
/// This is what a master-worker runtime with perfect platform knowledge but
/// no lookahead would do.  It is feasible by construction but not optimal:
/// the HEUR experiment quantifies the gap against the paper's algorithm.

namespace mst {

ChainSchedule forward_greedy_chain(const Chain& chain, std::size_t n);
SpiderSchedule forward_greedy_spider(const Spider& spider, std::size_t n);

Time forward_greedy_chain_makespan(const Chain& chain, std::size_t n);
Time forward_greedy_spider_makespan(const Spider& spider, std::size_t n);

/// Workload forms: tasks are dispatched in canonical workload order, each
/// picking the destination with the earliest size-scaled, release-gated
/// ASAP completion.  The `n` forms are these on `Workload::identical(n)`.
ChainSchedule forward_greedy_chain(const Chain& chain, const Workload& workload);
SpiderSchedule forward_greedy_spider(const Spider& spider, const Workload& workload);

}  // namespace mst
