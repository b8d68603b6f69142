#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/platform/chain.hpp"
#include "mst/schedule/comm_vector.hpp"

/// \file kernels.hpp
/// Core-private kernels shared by the exact schedulers: the one horizon
/// bisection behind every makespan form with the spider search range and
/// build merge, and the one implementation of the Fig 3 backward
/// construction.  Materialization and tracing run its loop whole, a *sink*
/// deciding what each step produces; an emission profile (`LegProfile`),
/// which every chain count and search, the spider reduction's legs and a
/// fork's unit legs read, resumes the same steps one rank at a time.

namespace mst::detail {

// The kernels only touch their arguments — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Smallest horizon in `[lo, hi]` satisfying the monotone predicate `fits`
/// (`fits(hi)` must hold), in at most `ceil(log2(hi - lo + 1))` calls of
/// `fits`.  Every makespan form of the exact core finds its optimal window
/// through this search.
///
/// Build once, probe many times — the chain searches and the release-dated
/// spider (and fork) searches never rebuild their instance per probe; an
/// identical-task spider or fork search instead runs each probe as the lazy
/// greedy's count (`spider_scheduler.hpp`), which reads only the nodes that
/// probe can keep off per-leg emission profiles that build each rank once.
/// Building once rests on a shift lemma (a result beyond the paper): the
/// backward construction only takes `min`s of, and subtracts from, values
/// that all start at the horizon (`h = o = H`), so it commutes with a
/// uniform shift.  Its first emissions at any `T <= H` are the emissions at
/// `H` shifted by `T - H` and cut before the first negative one (they never
/// increase along the construction).  The spider node instance inherits
/// the shift: a Fig 7 leg node has deadline `C_1 + c_1`, which shifts with
/// the leg's emissions, and exists at `T` iff that deadline still covers
/// its `c_1`.  So a search runs one *build* step at the top of its range —
/// for a release-dated spider, the upper end `UB` of its bracket —
/// the chain profile's ranks, or the node instance as EDD-ordered
/// `(deadline at H, comm, id)` jobs, merged from the per-leg runs
/// (`merge_edd_runs`) — and every bisection *probe* at `T` lowers each
/// emission or deadline by `H - T`, dropping the ranks whose emission fell
/// below 0 or the jobs whose deadline fell below their processing time.
/// A uniform shift keeps EDD order, so a spider probe is one linear
/// positional-release DP pass with no sort (`probe_instance` takes
/// release-dated workloads only), and the optimum `T*` is selected and
/// materialized from the same instance, shifted by `H - T*`.  A
/// release-dated `count_within` is the same two steps at one horizon
/// (build at `T`, probe with shift 0).
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

/// The bounds of a spider makespan search for `n` tasks, accumulated over
/// the platform's processors with every sum overflow-checked.
///
///   * `top`: all `n` tasks pipelined on the best single first processor
///     `(c, w)` — `c + (n-1)·max(c, w) + w` — shifted past the last release
///     date.  Always feasible.  A pipeline that overflows `Time` is skipped;
///     if every one does, the search is rejected.
///   * `floor`, the release one-port floor: `max_k (r[n-k] + (k-1)·min c_1)
///     + min reach` over `k = 1..n`, where `r` is the ascending release
///     dates (0-based, all 0 without release dates), `c_1` a first-link
///     latency and `reach` the path latency plus `w` of any processor.
///     Proof sketch: the j-th emission in time order starts no earlier than
///     `r[j]` (dates bind positionally), and the master emits one task at
///     a time, each emission holding its port for at least `min c_1`.  So
///     of the last `k` emissions, the first starts at or after `r[n-k]`
///     and the last `(k-1)·min c_1` later still; that task then has to
///     cross its path and run.  No schedule of `n` tasks — not only none
///     the selection DP finds — finishes before `floor`.  `k = n` and
///     `k = 1` give the two terms of the plain one-port floor
///     `max((n-1)·min c_1, last release) + min reach`.  Every term is at
///     most `top` (the best pipeline's own terms bound it), so nothing
///     here can overflow once `top` exists.
///
/// A valid lower end only shortens the search.  For identical tasks and
/// `n >= 2` the floor meets `top`, and the search runs no probe, exactly
/// when one source's first processor `(c, w)` has the minimum `c_1`,
/// `w <= c` and the minimum reach; any other gap leaves up to
/// `ceil(log2(top - floor + 1))` probes.  A release-dated search is
/// bracketed tighter still, between the identical-task optimum and its
/// release-delayed selection (`spider_scheduler.cpp`); both ends lie in
/// `[floor, top]`.
class SearchRange {
 public:
  explicit SearchRange(std::size_t n) : n_(n) {}

  /// A source — a spider leg, or a fork slave as a unit leg — whose first
  /// processor is `first`.
  void add_source(const Processor& first) {
    min_comm_ = std::min(min_comm_, first.comm);
    Time span = 0;
    const bool overflow =
        __builtin_mul_overflow(std::max(first.comm, first.work), n_ - 1, &span) ||
        __builtin_add_overflow(span, first.comm, &span) ||
        __builtin_add_overflow(span, first.work, &span);
    if (!overflow) top_ = std::min(top_, span);
  }

  /// A processor reached after `path` of link latency, computing in `work`.
  void add_reach(Time path, Time work) {
    Time reach = 0;
    if (!__builtin_add_overflow(path, work, &reach)) min_reach_ = std::min(min_reach_, reach);
  }

  /// `top` for tasks all released by `last_release`.
  [[nodiscard]] Time top(Time last_release = 0) const {
    Time top = 0;
    MST_REQUIRE(top_ != kNone && !__builtin_add_overflow(top_, last_release, &top),
                "the n-task pipeline of every fork slave or spider leg exceeds the largest "
                "time 9223372036854775807");
    return top;
  }

  /// `floor` for the release dates `releases` (ascending, one per task, or
  /// empty when all are 0).
  [[nodiscard]] Time floor(const std::vector<Time>& releases = {}) const {
    MST_ASSERT(releases.empty() || releases.size() == n_);
    // Term `j` is that of the last `k = n - j` emissions; without release
    // dates `j = 0` is the largest.
    const std::size_t terms = releases.empty() ? 1 : n_;
    Time port = 0;
    for (std::size_t j = 0; j < terms; ++j) {
      Time term = 0;
      const bool overflow = __builtin_mul_overflow(min_comm_, n_ - 1 - j, &term) ||
                            __builtin_add_overflow(term, releases.empty() ? 0 : releases[j], &term);
      MST_ASSERT(!overflow);
      port = std::max(port, term);
    }
    const Time floor = port + min_reach_;
    MST_ASSERT(floor <= top(releases.empty() ? 0 : releases.back()));
    return floor;
  }

 private:
  static constexpr Time kNone = std::numeric_limits<Time>::max();
  std::size_t n_;
  Time top_ = kNone;
  Time min_comm_ = kNone;
  Time min_reach_ = kNone;
};

/// The build step's p-way merge: `runs` EDD-ordered runs of jobs — run `r`
/// holds `offsets[r+1] - offsets[r]` of them, its j-th being
/// `job_at(r, j)` — merged into `out` in `EddJob` order through a min-heap
/// of run heads kept in `heads`.  `O(N log p)` for `N` jobs in `p` runs,
/// against `O(N log N)` for sorting them.  Each step replaces the head by
/// its run's next job and sifts it down once, where `pop_heap` followed by
/// `push_heap` would sift twice.
template <typename JobAt>
void merge_edd_runs(const std::vector<std::size_t>& offsets, JobAt&& job_at,
                    std::vector<EddRun>& heads, std::vector<EddJob>& out) {
  const auto later = [](const EddRun& a, const EddRun& b) { return b.job < a.job; };
  const std::size_t runs = offsets.size() - 1;
  heads.clear();
  for (std::size_t r = 0; r < runs; ++r) {
    if (offsets[r] < offsets[r + 1]) heads.push_back(EddRun{job_at(r, 0), r, 1});
  }
  std::make_heap(heads.begin(), heads.end(), later);
  out.clear();
  while (!heads.empty()) {
    out.push_back(heads.front().job);
    EddRun moving = heads.front();
    if (moving.next == offsets[moving.run + 1] - offsets[moving.run]) {
      std::pop_heap(heads.begin(), heads.end(), later);
      heads.pop_back();
      continue;
    }
    // Replace the head by its run's next job and sift it down.
    moving.job = job_at(moving.run, moving.next++);
    std::size_t hole = 0;
    for (std::size_t child = 1; child < heads.size(); child = 2 * hole + 1) {
      if (child + 1 < heads.size() && later(heads[child], heads[child + 1])) ++child;
      if (!later(moving, heads[child])) break;
      heads[hole] = heads[child];
      hole = child;
    }
    heads[hole] = moving;
  }
}

/// The run holding job `id` of a merged instance (`offsets` as above, ids
/// numbered run after run).
inline std::size_t run_of(const std::vector<std::size_t>& offsets, std::size_t id) {
  return static_cast<std::size_t>(std::upper_bound(offsets.begin(), offsets.end(), id) -
                                  offsets.begin()) -
         1;
}

/// The bisection of a makespan search: the smallest horizon in `[lo, hi]`
/// at which `count_at(horizon)` reaches `n`, its probes counted in
/// `scratch.probes`.
template <typename Scratch, typename CountAt>
Time search_instance(Scratch& scratch, Time lo, Time hi, std::size_t n, CountAt&& count_at) {
  scratch.probes = 0;
  return min_horizon(lo, hi, [&](Time t) {
    ++scratch.probes;
    return count_at(t) >= n;
  });
}

/// The backward construction, one task at a time, in `O(p)` per task
/// (derivation and proof sketch: `core/chain_scheduler.hpp`).
/// `start_backward` anchors `state` at `horizon`; each `next_backward` then
/// finds the next task's Definition 3 winner and builds its vector into
/// `state.best()`, and `commit_backward` makes it the new hull.  The loop
/// below and the emission profiles (`LegProfile`) run these same steps, so
/// there is one copy of the Definition 3 loop.
///
/// The state is kept relative to the prefix latencies `S_j = c_0 + … +
/// c_{j-1}`: `a_i = h_i - S_{i+1}` per link and `b_k = o_k - w_k - S_{k+1}`
/// per processor, so destination `k`'s Fig 3 candidate is
/// `kC_j = S_j + min(min a[j..k], b_k)`.  Each task scans the destinations
/// left to right, keeping the Definition 3 maximum `k` so far and
/// `lim = min a[k..k']`: a later `k'` beats `k` iff
/// `b_k < min(lim, b_k')`, and once `b_k >= lim` nothing later can.  Only
/// the winner is built, right to left, and committed as the new hull.
///
/// `start_backward` rejects (`std::invalid_argument`) a chain whose prefix
/// latencies or initial state overflow `Time`.  With `fixed_count` it also
/// rejects a chain whose total latency plus its largest `w` overflows: a
/// fixed-count construction's state keeps falling past 0, and every value
/// it forms stays within that distance below the state.  A decision-form
/// construction needs no such bound as long as it only commits a task whose
/// first emission `best[0] >= 0`: the destination's `b >= best[0] >= 0`
/// before it loses one `w`, and every `a_j = best[j] - S_{j+1} >= -S_p` —
/// all within the range the initial pass already checked.
inline void start_backward(const Chain& chain, Time horizon, bool fixed_count,
                           BackwardState& state) {
  const std::size_t p = chain.size();
  state.resize(p);
  Time* const prefix = state.prefix();
  Time* const a = state.hull_slack();
  Time* const b = state.occupancy_slack();
  // Every index below is `< p`, so the loops read the processors directly
  // rather than through the range-checked `Chain::proc` call.
  const Processor* const procs = chain.procs().data();

  // Prefix sums and the initial state (`h = o = horizon`) in one pass.
  bool overflow = false;
  Time max_work = 0;
  prefix[0] = 0;
  for (std::size_t k = 0; k < p; ++k) {
    overflow |= __builtin_add_overflow(prefix[k], procs[k].comm, &prefix[k + 1]);
    overflow |= __builtin_sub_overflow(horizon, prefix[k + 1], &a[k]);
    overflow |= __builtin_sub_overflow(a[k], procs[k].work, &b[k]);
    max_work = std::max(max_work, procs[k].work);
  }
  Time reach = 0;
  if (fixed_count) overflow |= __builtin_add_overflow(prefix[p], max_work, &reach);
  MST_REQUIRE(!overflow,
              "the chain's total link latency plus its largest w exceeds the largest time "
              "9223372036854775807");
}

/// The next task's destination, its vector built into `state.best()[0..dest]`.
/// Its entries increase along the vector (c_j >= 0), so `best[0]` decides
/// whether the task still fits a window.  Commits nothing.
inline std::size_t next_backward(const Chain& chain, BackwardState& state) {
  const std::size_t p = chain.size();
  const Time* const prefix = state.prefix();
  const Time* const a = state.hull_slack();
  const Time* const b = state.occupancy_slack();
  Time* const best = state.best();

  // Definition 3 maximum over the destinations, one comparison each.
  std::size_t dest = 0;
  Time lim = a[0];
  for (std::size_t k = 1; k < p; ++k) {
    lim = std::min(lim, a[k]);
    if (b[dest] >= lim) break;
    if (b[dest] < b[k]) {
      dest = k;
      lim = a[k];
    }
  }

  // The winner, right to left.
  Time m = b[dest];
  for (std::size_t j1 = dest + 1; j1 >= 1; --j1) {
    const std::size_t j = j1 - 1;
    m = std::min(m, a[j]);
    best[j] = prefix[j] + m;
  }
  return dest;
}

/// Commits the winner `next_backward` left in `state.best()`: the task
/// executes as late as `dest` allows, and its emissions become the hulls of
/// every link it crosses.  Returns its execution start.
inline Time commit_backward(const Chain& chain, std::size_t dest, BackwardState& state) {
  const Time* const prefix = state.prefix();
  Time* const a = state.hull_slack();
  Time* const b = state.occupancy_slack();
  const Time* const best = state.best();
  const Time start = b[dest] + prefix[dest + 1];
  b[dest] -= chain.procs()[dest].work;
  for (std::size_t j = 0; j <= dest; ++j) a[j] = best[j] - prefix[j + 1];
  return start;
}

/// The backward construction anchored at `horizon`.  With
/// `stop_on_negative` (decision form) it stops before a task whose first
/// emission would be negative; otherwise it places exactly `max_tasks`
/// tasks.  Returns the number placed.
///
/// The sink sees every placement, latest task first:
/// `place(dest, start, best)` — the committed vector (`best[0..dest]`) and
/// execution start.  The loop itself only touches `scratch`, so a warm
/// scratch and a non-allocating sink make it allocation-free.
template <typename Sink>
std::size_t backward_construction(const Chain& chain, Time horizon, std::size_t max_tasks,
                                  bool stop_on_negative, ChainCountScratch& scratch, Sink& sink) {
  BackwardState& state = scratch.state;
  start_backward(chain, horizon, /*fixed_count=*/!stop_on_negative, state);
  std::size_t placed = 0;
  for (; placed < max_tasks; ++placed) {
    const std::size_t dest = next_backward(chain, state);
    if (stop_on_negative && state.best()[0] < 0) break;
    const Time start = commit_backward(chain, dest, state);
    sink.place(dest, start, static_cast<const Time*>(state.best()));
  }
  return placed;
}
// mstlint: zero-alloc-end

}  // namespace mst::detail
