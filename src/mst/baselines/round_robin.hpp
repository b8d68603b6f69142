#pragma once

#include "mst/baselines/asap.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file round_robin.hpp
/// `round_robin(shape, workload)`: round-robin dispatch on a chain or a
/// spider — the heterogeneity-blind baseline.  A fork runs as its unit-leg
/// spider (`Spider::from_fork`).
///
/// Tasks cycle over the processors in index order with ASAP timing.  On a
/// heterogeneous platform this both overloads slow processors and starves
/// fast ones; the HEUR experiment uses it as the "what if we ignore the
/// paper entirely" reference point.

namespace mst {

/// The cyclic destination sequence ignores sizes and releases by
/// definition; timing is the size-scaled, release-gated ASAP placement.
ChainSchedule round_robin(const Chain& chain, const Workload& workload);
SpiderSchedule round_robin(const Spider& spider, const Workload& workload);

/// The same schedule rebuilt into `out` on `state`'s buffers
/// (`asap_replay_into`), returning its makespan: allocation-free once both
/// are warm.  The policy is prefix-stable, so a deadline `stop` gives its
/// decision form in the same one replay.
Time round_robin(const Chain& chain, const Workload& workload, TreeAsapState& state,
                 ChainSchedule& out, const ReplayStop& stop = {});
Time round_robin(const Spider& spider, const Workload& workload, TreeAsapState& state,
                 SpiderSchedule& out, const ReplayStop& stop = {});

}  // namespace mst
