#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file chain_scheduler.hpp
/// The paper's primary contribution (§3): a makespan-optimal schedule of
/// `n` identical tasks on a chain of heterogeneous processors, built
/// *backward* from the horizon.  The paper's loop is quadratic in `p` per
/// task; this library builds the same schedule in `O(n·p)` (a result beyond
/// the paper, derived below).
///
/// Sketch (matching the pseudo-code of Fig 3): the algorithm keeps, per
/// link, a *hull* `h_k` — the earliest emission already scheduled on link
/// `k` — and per processor an *occupancy* `o_k` — the earliest execution
/// start already scheduled on processor `k`.  Both start at the horizon.
/// Scheduling tasks from the last to the first, each task evaluates one
/// candidate communication vector per destination processor `k`:
///
///     kC_k = min(o_k - w_k - c_k,  h_k - c_k)          (last hop)
///     kC_j = min(kC_{j+1} - c_j,   h_j - c_j)  (j < k)  (upstream hops)
///
/// and commits to the *greatest* candidate under the Definition 3 order
/// (latest first-link emission; ties toward the nearer processor).  The
/// schedule is finally shifted so the first emission happens at time 0.
///
/// Theorem 1 proves the construction optimal; our test-suite re-verifies
/// this against exhaustive search on thousands of small instances.
///
/// One comparison per destination.  Building all `p` candidates costs
/// `O(p²)` per task.  Unroll the recurrence with the prefix latencies
/// `S_j = c_0 + … + c_{j-1}`, `a_i = h_i - S_{i+1}` and
/// `b_k = o_k - w_k - S_{k+1}`:
///
///     kC_j = S_j + min(min a[j..k], b_k)
///
/// Take destinations `k < k'` and `X = min(min a[k+1..k'], b_k')`.  On their
/// common prefix `j <= k` the two candidates differ by
/// `min(A_j, b_k) - min(A_j, X)` with `A_j = min a[j..k]`.  Both equal `A_j`
/// while `A_j <= min(b_k, X)`, and `A_j` only grows with `j`, up to `a_k`.
/// So they differ on the prefix iff `b_k != X` and `min(b_k, X) < a_k`.  At
/// the first difference only the smaller of `b_k` and `X` lies below `A_j`,
/// so the candidate it belongs to (`k` for `b_k`, `k'` for `X`) is the
/// smaller there.  Hence `k'` is greater under Definition 3 iff
///
///     b_k < min(a_k, min a[k+1..k'], b_k')
///
/// and otherwise `k` is: either the prefixes agree and the shorter `k`
/// wins, or `k` is greater at the first difference.  Candidates have
/// distinct lengths, and on such vectors Definition 3 is a total order
/// (lexicographic, with the end of a vector ranking above every entry), so
/// a left-to-right running maximum finds the candidate the paper's loop
/// commits.  The running `min a[k..k']` only decreases, so once it drops to
/// `b_k` or below, `k` is final.  Only the winner is then built, right to
/// left, and its entries become the new hulls: `O(p)` per task in all, and
/// the schedule, counts and emissions are bit for bit the paper's
/// (`tests/test_chain_kernel.cpp` checks them against the quadratic loop).

namespace mst {

/// The state of one backward construction (the derivation above), which
/// resumes one task at a time: a construction run whole keeps it in its
/// scratch, an emission profile (`LegProfile`, below) for as long as the
/// profile lives.  Its four arrays share one buffer, so a profile per
/// leg costs one allocation for them.
class BackwardState {
 public:
  /// Sizes the arrays for a chain of `p` processors; their values are the
  /// construction's to set.
  void resize(std::size_t p) {
    p_ = p;
    buffer_.resize(4 * p + 1);
  }
  Time* prefix() { return buffer_.data(); }  ///< `S_j`, the latency up to link `j` (`p + 1`)
  Time* hull_slack() { return buffer_.data() + p_ + 1; }  ///< `a_i = h_i - S_{i+1}` per link
  /// `b_k = o_k - w_k - S_{k+1}` per processor.
  Time* occupancy_slack() { return buffer_.data() + 2 * p_ + 1; }
  Time* best() { return buffer_.data() + 3 * p_ + 1; }  ///< the current task's winner

 private:
  std::size_t p_ = 0;
  std::vector<Time> buffer_;
};

/// A chain's emission profile: the first emission `C¹` and destination
/// processor of each rank of its backward construction, latest first, built
/// lazily by one resumable construction.  That construction is the decision
/// form anchored at the largest time.  By the shift lemma (`min_horizon` in
/// `core/kernels.hpp`) the construction at a horizon `t` emits the same
/// values lowered by `largest time − t`, stopping before the first negative
/// one, so the ranks at `t` are the profile's first ranks whose emission,
/// so lowered, is still at least 0, and every value it forms stays in the
/// range `start_backward` checks.  The profile extends only as far as some
/// horizon asks: every count, makespan and release-dated search of the
/// chain reads one, as does each spider leg and fork slave
/// (`spider_scheduler.hpp`) and the chain `replan` policy, which keeps it
/// for the whole stream.
class LegProfile {
 public:
  /// Binds the profile to `leg`, which must outlive its use, and forgets
  /// every rank; the buffers stay warm.
  void reset(const Chain& leg);

  /// The number of the chain's ranks at horizon `t >= 0`, at most `cap`:
  /// the count of the decision-form construction at `t`.  Builds the ranks
  /// that answer needs that are not built yet, and at most one more.
  /// Rejects a chain whose prefix latencies overflow
  /// (`std::invalid_argument`), as the construction does.
  std::size_t ranks(Time t, std::size_t cap);

  /// The optimal makespan of `n >= 1` tasks on the chain,
  /// `H - emission(n - 1, H)` at `H = T∞(n)` (`ChainScheduler::makespan`),
  /// building the ranks that needs.  Rejects an `n` whose `T∞` leaves the
  /// time range (`std::invalid_argument`).
  Time makespan(std::size_t n);

  /// Rank `i`'s first emission at horizon `t` (`i < ranks(t, …)`).
  [[nodiscard]] Time emission(std::size_t i, Time t) const {
    return ranks_[i].emission - (kAnchor - t);
  }
  /// Rank `i`'s destination processor.
  [[nodiscard]] std::size_t dest(std::size_t i) const { return ranks_[i].dest; }
  /// The ranks built since the last `reset`.
  [[nodiscard]] std::size_t depth() const { return ranks_.size(); }

 private:
  static constexpr Time kAnchor = std::numeric_limits<Time>::max();
  struct Rank {
    Time emission = 0;     ///< anchored first emission
    std::size_t dest = 0;  ///< destination processor
  };
  const Chain* leg_ = nullptr;
  BackwardState state_;      ///< valid once `started_`
  bool started_ = false;     ///< anchored on the first `ranks` call
  bool exhausted_ = false;   ///< the next rank's anchored emission is negative
  std::vector<Rank> ranks_;  ///< latest first
};

/// Reusable buffers of the chain forms.  Keep one per thread: after the
/// first call the buffers are warm, and every further call on a chain of
/// the same (or smaller) size performs no heap allocation at all — the
/// sweep runner's hot path relies on this.
struct ChainCountScratch {
  BackwardState state;     ///< the materializing construction's state
  LegProfile profile;      ///< the counts' and searches' emission profile
  std::size_t probes = 0;  ///< bisection probes of the last makespan search
};

/// Optimal scheduling on chains (stateless; all methods are pure functions
/// of their arguments).
class ChainScheduler {
 public:
  /// Makespan form: optimal schedule of exactly `n >= 1` tasks.  The result
  /// starts at time 0 and its makespan equals the optimum (Theorem 1).
  /// Complexity O(n·p).
  static ChainSchedule schedule(const Chain& chain, std::size_t n);

  /// Optimal makespan of `n` tasks without materializing task placements:
  /// `H - e_n` at `H = T∞(n)`, `e_n` being the first emission of the
  /// emission profile's rank `n - 1` there (`LegProfile::makespan`).  The
  /// construction's first task placed ends at `H`, and its first `n` tasks
  /// are the optimal `n`-task schedule shifted to end there (suffix
  /// optimality plus the shift lemma), so one profile answers every `n`.
  static Time makespan(const Chain& chain, std::size_t n);

  /// Workload makespan form.  Identical workloads take the `schedule(chain,
  /// n)` path above bit-for-bit.  Release dates are handled natively: tasks
  /// not yet released simply shift the earliest feasible start in the span
  /// recurrences, i.e. the minimal horizon `T*` is found by binary search
  /// over the release-aware decision count below and the backward
  /// construction is anchored there.  Because release dates are absolute,
  /// the result is *not* shifted to start at 0; its makespan equals `T*`,
  /// which is optimal: the backward emissions are the componentwise-latest
  /// among all k-task schedules ending by the horizon (Lemma 4 suffix
  /// optimality), so a horizon admits `n` release-feasible tasks iff any
  /// schedule does.  Non-uniform task sizes are outside the algorithm's
  /// optimality proof and are rejected (`std::invalid_argument`).
  ///
  /// Search cost: the emission profile's `n` ranks, built at the top of the
  /// range in `O(n·p)`, then at most `ceil(log2(top + 1))` probes of
  /// `O(n log n)` each (counted in `ChainCountScratch::probes`) that read it
  /// with no further construction, and one materializing construction at
  /// `T*`.  This rests on a shift lemma, a result beyond the paper: the
  /// construction commutes with a uniform shift of its horizon, so its
  /// first emissions at `T <= H` are those at `H` shifted by `T - H` and cut
  /// before the first negative one (`min_horizon` in `core/kernels.hpp`).
  static ChainSchedule schedule(const Chain& chain, const Workload& workload);

  /// Workload decision form: as many workload tasks as possible — at most
  /// `min(cap, workload.count())` — completing within `[0, t_lim]`, release
  /// dates respected positionally (the j-th emission in time order starts at
  /// or after the j-th smallest release date).
  static ChainSchedule schedule_within(const Chain& chain, Time t_lim, const Workload& workload,
                                       std::size_t cap);

  /// Counting form of the above, read off the scratch's emission profile
  /// (`scratch.profile`, rebound to `chain`).  Without release dates it is
  /// the profile's ranks at `t_lim`.  With them it is the largest k whose k
  /// latest of those ranks' emissions dominate the k earliest release dates
  /// (sorted-to-sorted matching is optimal for interchangeable tasks; the
  /// predicate is monotone in k, so a binary search suffices).
  static std::size_t count_within(const Chain& chain, Time t_lim, const Workload& workload,
                                  std::size_t cap, ChainCountScratch& scratch);

  /// Decision form (§7): schedule as many tasks as possible — at most
  /// `max_tasks` — so that all of them complete by `t_lim`.  All times stay
  /// absolute in `[0, t_lim]`; no shift is applied, because the spider
  /// reduction needs the emission times relative to the window.  The
  /// returned schedule's tasks are the *suffix* property holders: for every
  /// `k`, its last `k` tasks form an optimal `k`-task schedule ending at
  /// `t_lim` (consequence of the backward construction; exploited by
  /// Lemma 4).
  static ChainSchedule schedule_within(const Chain& chain, Time t_lim, std::size_t max_tasks);

  /// Number of tasks the decision form schedules (throughput counting).
  /// Runs the counting construction below with a private scratch.
  static std::size_t max_tasks(const Chain& chain, Time t_lim, std::size_t cap);

  /// Decision-form counting without materialization: the ranks of the
  /// scratch's emission profile, rebound to `chain`, at `t_lim`, never
  /// building `ChainTask`s or communication vectors.  With a warm
  /// `scratch` this performs zero heap allocations — the registry's
  /// `materialize == false` fast path sits on it.
  static std::size_t count_within(const Chain& chain, Time t_lim, std::size_t cap,
                                  ChainCountScratch& scratch);

  /// Raw backward construction anchored at an arbitrary horizon, exposed for
  /// the property tests of Lemma 2 (sub-chain projection) and Lemma 4
  /// (suffix optimality).  If `stop_on_negative` is true the construction
  /// stops before scheduling a task whose first emission would be negative
  /// (decision form); otherwise it schedules exactly `max_tasks` tasks
  /// regardless of sign (makespan form, shifted by the caller).
  // mstlint: allow-next-line(tests-only-api) -- Lemma 2/4 tests: test_chain_{properties,kernel}
  static ChainSchedule build_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                                      bool stop_on_negative);

  // -------------------------------------------------------------------------
  // One kernel, two readers.  Every entry point above and below runs the
  // same backward construction steps (`core/kernels.hpp`).  Counts and
  // searches read them through the emission profile; materialization and
  // tracing (`chain_trace.hpp`) run them whole, a sink deciding what each
  // step produces: a schedule materialized into reused buffers, or a trace
  // step.  The value-returning forms are a local scratch around the `_into`
  // forms, which rebuild `out` in place — task slots, their communication
  // vectors and the chain copy all reuse warm capacity.  After one warm-up
  // call at a given (p, n), repeated solves perform zero heap allocations.

  /// `schedule(chain, workload)` into `out`.
  static void schedule_into(const Chain& chain, const Workload& workload,
                            ChainCountScratch& scratch, ChainSchedule& out);

  /// `schedule_within(chain, t_lim, max_tasks)` into `out`.
  static void schedule_within_into(const Chain& chain, Time t_lim, std::size_t max_tasks,
                                   ChainCountScratch& scratch, ChainSchedule& out);

  /// `schedule_within(chain, t_lim, workload, cap)` into `out`.
  static void schedule_within_into(const Chain& chain, Time t_lim, const Workload& workload,
                                   std::size_t cap, ChainCountScratch& scratch,
                                   ChainSchedule& out);
};

}  // namespace mst
