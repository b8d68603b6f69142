#pragma once

#include <algorithm>
#include <cstddef>

#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/platform/chain.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "mst/workload/workload.hpp"

/// \file kernels.hpp
/// Core-private kernels shared by the exact schedulers: the one horizon
/// bisection behind every makespan form with the fork/spider probe step,
/// and the one implementation of the Fig 3 backward construction.  Every
/// chain entry point — counting, first emissions, materialization,
/// tracing — and, through them, the spider reduction runs that loop; a
/// *sink* decides what each step produces.

namespace mst::detail {

// The kernels only touch their arguments — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Smallest horizon in `[lo, hi]` satisfying the monotone predicate `fits`
/// (`fits(hi)` must hold).  Every makespan form of the exact core finds its
/// optimal window through this search.
///
/// Build once, probe many times.  The searches never rebuild their instance
/// per probe, because of a shift lemma (a result beyond the paper): the
/// backward construction only takes `min`s of, and subtracts from, values
/// that all start at the horizon (`h = o = H`), so it commutes with a
/// uniform shift.  Its first emissions at any `T <= H` are the emissions at
/// `H` shifted by `T - H` and cut before the first negative one (they never
/// increase along the construction).  The fork and spider node instances
/// inherit the shift: a Fig 6 node `(exec, comm)` exists at `T` iff
/// `exec + comm <= T`, with deadline `T - exec`; a Fig 7 leg node has
/// deadline `C_1 + c_1`, which shifts with the leg's emissions.  So a search
/// runs one *build* step at the top of its range — the chain emissions, or
/// the node instance as EDD-sorted `(deadline at H, comm)` pairs — and every
/// bisection *probe* at `T` lowers each deadline by `H - T` and drops the
/// jobs whose deadline fell below their processing time.  A uniform shift
/// keeps EDD order, so a probe is one linear Moore–Hodgson (or
/// positional-release DP) pass with no sort: one build plus ~log2(top)
/// linear probes per search.  `count_within` is the same two steps at one
/// horizon (build at `T`, probe with shift 0).
template <typename Fits>
Time min_horizon(Time lo, Time hi, Fits&& fits) {
  while (lo < hi) {
    const Time mid = lo + (hi - lo) / 2;
    if (fits(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// The probe step of the fork and spider counts: the count at `t_lim` of
/// the EDD instance `scratch.edd` built at `scratch.build_horizon` for the
/// same workload and cap — Moore–Hodgson for identical workloads, the
/// positional-release DP with release dates, each capped at the cap.
template <typename Scratch>
std::size_t probe_selection(Scratch& scratch, Time t_lim, const Workload& workload,
                            std::size_t cap) {
  MST_REQUIRE(t_lim >= 0 && t_lim <= scratch.build_horizon,
              "probe horizon must lie in [0, build horizon]");
  const Time shift = scratch.build_horizon - t_lim;
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) {
    return moore_hodgson_count(scratch.edd, shift, k_cap, scratch.heap);
  }
  return moore_hodgson_released_count(scratch.edd, shift, workload.releases(), k_cap,
                                      scratch.dp);
}

/// The backward construction anchored at `horizon`: hull `h_k` per link and
/// occupancy `o_k` per processor start at the horizon; each step evaluates
/// one candidate communication vector per destination `k`
///
///     kC_k = min(o_k - w_k - c_k, h_k - c_k),  kC_j = min(kC_{j+1} - c_j, h_j - c_j)
///
/// and commits the greatest under Definition 3.  With `stop_on_negative`
/// (decision form) it stops before a task whose first emission would be
/// negative; otherwise it places exactly `max_tasks` tasks.  Returns the
/// number placed.
///
/// The sink sees every step, latest task first:
///   * `candidate(k, vec)` — destination `k`'s candidate (`vec[0..k]`);
///   * `place(dest, start, best, hull, occupancy)` — the committed vector
///     (`best[0..dest]`) and execution start, with hull/occupancy (length
///     `p`) as they were *before* this task.
/// The loop itself only touches `scratch`, so a warm scratch and a
/// non-allocating sink make it allocation-free.
template <typename Sink>
std::size_t backward_construction(const Chain& chain, Time horizon, std::size_t max_tasks,
                                  bool stop_on_negative, ChainCountScratch& scratch, Sink& sink) {
  const std::size_t p = chain.size();
  scratch.hull.assign(p, horizon);
  scratch.occupancy.assign(p, horizon);
  scratch.candidate.resize(p);
  scratch.best.resize(p);
  Time* const hull = scratch.hull.data();
  Time* const occupancy = scratch.occupancy.data();
  Time* const candidate = scratch.candidate.data();
  Time* const best = scratch.best.data();
  // Every index below is `< p`, so the loop reads the processors directly
  // rather than through the range-checked `Chain::proc` call.
  const Processor* const procs = chain.procs().data();

  std::size_t placed = 0;
  while (placed < max_tasks) {
    std::size_t best_len = 0;
    for (std::size_t k1 = p; k1 >= 1; --k1) {
      const std::size_t k = k1 - 1;
      // Last hop, then the upstream hops right to left.
      candidate[k] = std::min(occupancy[k] - procs[k].work - procs[k].comm,
                              hull[k] - procs[k].comm);
      for (std::size_t j1 = k; j1 >= 1; --j1) {
        const std::size_t j = j1 - 1;
        candidate[j] = std::min(candidate[j + 1] - procs[j].comm, hull[j] - procs[j].comm);
      }
      sink.candidate(k, static_cast<const Time*>(candidate));
      if (best_len == 0 || precedes(best, best_len, candidate, k + 1)) {
        std::copy(candidate, candidate + k + 1, best);
        best_len = k + 1;
      }
    }
    MST_ASSERT(best_len >= 1);

    // Candidate entries increase along the vector (c_j >= 0), so the first
    // entry decides whether the task still fits in the window.
    if (stop_on_negative && best[0] < 0) break;

    // Execute as late as the destination allows; the task's emissions
    // become the hulls of every link it crosses.
    const std::size_t dest = best_len - 1;
    const Time start = occupancy[dest] - procs[dest].work;
    sink.place(dest, start, static_cast<const Time*>(best), static_cast<const Time*>(hull),
               static_cast<const Time*>(occupancy));
    occupancy[dest] = start;
    std::copy(best, best + best_len, hull);
    ++placed;
  }
  return placed;
}
// mstlint: zero-alloc-end

}  // namespace mst::detail
