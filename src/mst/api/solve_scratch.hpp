#pragma once

#include <utility>
#include <variant>

#include "mst/api/registry.hpp"
#include "mst/baselines/bounds.hpp"
#include "mst/baselines/periodic.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/local_search.hpp"
#include "mst/heuristics/tree_schedule.hpp"

/// \file solve_scratch.hpp
/// Cross-solve scratch for the registry's built-in exact solvers.
///
/// A `SolveScratch` bundles every reusable buffer a materializing solve
/// needs — the counting scratch of each core scheduler, the tree-cover
/// pipeline's and the local search's working sets, and one pooled schedule
/// per payload kind.  Thread it through `SolveOptions::scratch` and hand consumed
/// results back via `recycle`: the schedule payload's buffers move back
/// into the pool, so the next solve of similar shape rebuilds in place and
/// performs zero heap allocations once warm (pinned by
/// tests/test_zero_alloc.cpp).  One scratch per thread; sweeps keep one per
/// worker and reuse it across a whole batch of same-platform cells.

namespace mst::api {

struct SolveScratch {
  // Core counting + materialization scratch, one per exactly-solved kind.
  ChainCountScratch chain;
  Spider fork;                ///< a fork as its unit-leg spider, rebuilt in place
  SpiderSolveScratch spider;  ///< spiders and forks alike
  TreeCoverScratch tree_cover;
  /// The forward-ASAP engine with the tree descent's snapshots and bounds;
  /// the tree `forward-greedy` and `local-search` entries both run on it.
  LocalSearchScratch engine;
  OnePortScratch bound;  ///< spider/fork lower-bound one-port fill
  PeriodicScratch periodic;  ///< the chain `periodic` baseline's rates and counts

  // Pooled schedule payloads.  A solve moves the pool into its result; the
  // caller moves it back with `recycle` once the result is consumed.
  ChainSchedule chain_pool;
  SpiderSchedule spider_pool;  ///< spider and fork payloads alike
  TreeDispatch tree_pool;

  /// Reclaims the buffers of a consumed schedule payload.  Accepts any
  /// alternative (including `monostate`), so callers can recycle every
  /// result unconditionally.
  void recycle_schedule(AnySchedule&& schedule) {
    if (auto* chain_schedule = std::get_if<ChainSchedule>(&schedule)) {
      chain_pool = std::move(*chain_schedule);
    } else if (auto* spider_schedule = std::get_if<SpiderSchedule>(&schedule)) {
      spider_pool = std::move(*spider_schedule);
    } else if (auto* dispatch = std::get_if<TreeDispatch>(&schedule)) {
      tree_pool = std::move(*dispatch);
    }
  }

  void recycle(SolveResult&& result) { recycle_schedule(std::move(result.schedule)); }
  void recycle(DecisionResult&& result) { recycle_schedule(std::move(result.schedule)); }
};

}  // namespace mst::api
