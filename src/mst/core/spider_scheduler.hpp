#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/virtual_nodes.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file spider_scheduler.hpp
/// The paper's §7: optimal scheduling on spider graphs.
///
/// Pipeline for a window of length `T_lim` (the paper's 5-line algorithm):
///   (1) run the decision-form chain algorithm on every leg;
///   (2) turn every scheduled task into a virtual single-task node
///       (`comm = c_1` of the leg, `exec = T_lim − C¹ᵢ − c_1`, Fig 7);
///   (3) select a maximum feasible node set on the master's one-port
///       (the fork-graph step);
///   (4) revert: a leg with `k` selected nodes executes the *last `k`
///       tasks* of its chain schedule — optimal for `k` tasks by the
///       backward construction (Lemma 4) — with master emissions moved to
///       the (earlier) times chosen in step (3), which is feasible by
///       Lemma 3.
/// The makespan form binary-searches `T_lim` over the monotone decision
/// form; total complexity stays polynomial (Theorem 2) and the result is
/// optimal (Theorem 3).
///
/// Identical tasks: steps (1)–(3) as one lazy greedy (a result beyond the
/// paper, which runs Moore–Hodgson over every Fig 7 node).  Legs join in
/// ascending `(c_1, leg)` order; each reads, from its emission profile
/// (`LegProfile`, `chain_scheduler.hpp`), only as many of its nodes as
/// could still fit — `min(room, (T_lim − used)/c_1)`, since every deadline
/// is at most `T_lim` and so a feasible set holds the port at most
/// `T_lim` — and keeps the longest prefix of its ranks (latest emissions
/// first) that leaves the selection EDD-feasible.
/// That prefix is the least of one bound per node due at or after its
/// earliest rank, read in one pass down the deadline-sorted selection;
/// a merge then joins it.  A count stops once `cap` nodes are kept.
/// A selection applies only the per-leg limit `cap`, then trims the total
/// down to `cap` by dropping, one at a time, the node of largest
/// `exec = T_lim − C¹ − c_1` among the legs' earliest kept nodes (ties
/// toward the lower leg).
///
/// Emission profiles.  Step (1) at any window reads one construction per
/// leg.  The backward construction commutes with a uniform shift of its
/// horizon (the shift lemma, `min_horizon` in `core/kernels.hpp`), so a
/// leg's ranks at `T_lim` are the first ranks of one horizon-free
/// construction, moved to `T_lim` and cut before the first negative
/// emission.  A `LegProfile` keeps that construction's state and the first
/// emission and destination of every rank it has built, and extends it only
/// as far as some window asks: a solve builds each rank of each leg at most
/// once, over all its probes, its selection and its release-dated instance.
///
/// Why the greedy is exact.  The nodes of one leg `l` share one processing
/// time `c_l` (its first link), their deadlines `C¹ᵢ + c_l` fall with the
/// rank, and consecutive ones are at least `c_l` apart (the first link is
/// exclusive), so every leg's nodes alone are EDD-feasible.  Proven:
///   * Prefix closure.  Swapping a selected node for an unselected node of
///     the same leg with a later deadline keeps an EDD-feasible set
///     feasible (same processing time, every completion no later than its
///     deadline), so some optimal set takes a prefix of every leg's ranks:
///     only the per-leg counts matter, and the longest fitting prefix is
///     well defined (a prefix of a fitting prefix fits).
///   * Exchange.  Let `O` be an optimal prefix-closed set agreeing with the
///     greedy's `G` on as many legs as possible in the greedy's order, and
///     `l` the first leg where they differ.  `G` took the longest prefix of
///     `l` that fits with the same earlier legs, so `O_l < G_l`.  Add `l`'s
///     next rank `x` to `O`.  Every overloaded deadline `t` (load past `t`)
///     is at or after `x`'s; the nodes of legs up to `l` alone fit (they are
///     a subset of `G`), so the earliest overloaded `t` also covers a node
///     `y` of a later leg `m`, with `c_m >= c_l`.  Dropping `y` lowers the
///     load at every deadline from `y`'s on by `c_m >= c_l`, the most any
///     point was overloaded by, so `O + x − y` is feasible, as large, and —
///     after the prefix swap — agrees with `G` on one more rank.  Repeating
///     ends at `G`, so the greedy's count is the optimum.  The gaps of at
///     least `c_l` are not needed for this; the constant `c_l` per leg is.
///   * The counts equal Moore–Hodgson's (both are the optimum), and so does
///     the count of a selection trimmed to the cap.
/// Pinned by tests, not proven: that the greedy's *per-leg* counts before
/// the trim equal those of Moore–Hodgson's selection over every node
/// (max-heap on `(c_1, id)`, evicting the longest, ties toward the higher
/// leg); every schedule is a function of those counts.
/// `tests/test_spider_greedy.cpp` checks counts, per-leg counts and
/// whole schedules against that selection (`tests/support/`) on tie-heavy
/// spiders, unit-leg forks and one-leg spiders.
///
/// Release dates keep steps (1)–(2) on the whole node instance
/// (`build_instance`, read off the profiles) and select with the
/// positional-release DP; `probe_instance`, that DP's count over the built
/// instance, is for release-dated workloads only.
///
/// Search cost.  An identical-task search runs one greedy count per probe.
/// The profiles build each rank once, so a probe costs only the greedy's
/// merges and at most one binary search per leg over ranks already built;
/// the ranks the whole search builds are those of its deepest probe per
/// leg, at most one rank past them.  It starts at the one-port
/// floor (`detail::SearchRange`), not 0, so it runs at most
/// `ceil(log2(top - floor + 1))` probes, and none when the floor meets the
/// top — when one leg's first processor `(c, w)` has the minimum `c_{l,1}`,
/// `w <= c` and the minimum path latency plus `w`.
///
/// A release-dated search first finds that identical-task optimum `T_id`,
/// then bisects only the bracket `[LB, UB]` (results beyond the paper,
/// which searches the whole horizon; proof sketches at `search_released`
/// in `spider_scheduler.cpp`):
///   * `LB = max(release one-port floor, T_id)` — release dates only remove
///     selections;
///   * `UB = T_id + δ` — the greedy's `n` nodes at `T_id`, walked in the
///     DP's EDD order with prefix port times `P_j`, stay DP-feasible once
///     every deadline moves `δ = max_j (r[j] − P_j)⁺` later.
/// It builds the node instance once, at `UB`, from the same profiles: one
/// p-way merge of the legs' node runs, each already in EDD order.  Each
/// probe is then a single linear DP pass over the shifted instance, with no
/// sort, and there is none when `LB == UB`, as on 262, 267 and 258 of the
/// 288 release-dated fork and spider makespan cells of the repo
/// benchmark's `online-release` workload on seeds 1, 7 and 42.
/// `SpiderCountScratch` keeps the last search's ends and probes.
///
/// Step (4) orders the kept nodes by `(deadline, leg, index)` straight from
/// the profiles.  The materializing forms then rebuild only each leg's kept
/// suffix — its first `k` construction steps, every hop and start — not the
/// whole leg; the destinations-only form (`destinations_into`) reads each
/// task's processor off the profile and materializes nothing.
///
/// Starts.  Step (4) keeps each task's planned relays and start from its
/// leg's backward construction, as late as the window allows.  The makespan
/// forms then run one start pass (`start_early`): in master-emission order,
/// every master emission stays, every relay leaves as soon as the task has
/// arrived and the sending processor's port is free, and every task starts
/// as soon as it has arrived and its processor is free.  The plan relays
/// and runs each leg's tasks in master order, so by induction no time moves
/// later (asserted) and the schedule stays feasible; with release dates a makespan can end
/// earlier (a fork's, as on its unit-leg spider, since the paper's §6
/// starts every task at once).  The decision forms keep the planned starts,
/// so a materialized decision ends at the window, as a count-only one
/// reports.

namespace mst {

/// The intermediate artifact of steps (1)–(2), exposed so tests and the
/// Fig 7 experiment can inspect the transformation itself.
struct SpiderTransformation {
  /// Decision-form chain schedule of each leg (tasks in ascending
  /// first-emission order).
  std::vector<ChainSchedule> leg_schedules;
  /// All virtual nodes, leg by leg; `source` is the leg index and nodes of
  /// one leg appear in ascending rank (descending exec matches ascending
  /// first-emission order of the leg schedule — rank 0 is the latest task).
  std::vector<VirtualNode> nodes;
};

/// The emission profiles of one spider's legs.
class SpiderProfile {
 public:
  /// Binds the profiles to `spider`'s legs (the spider must outlive their
  /// use) and forgets every rank.  Buffers of earlier, wider spiders stay.
  void reset(const Spider& spider);
  [[nodiscard]] LegProfile& leg(std::size_t l) { return legs_[l]; }
  /// The ranks built over every leg since the last `reset`.
  [[nodiscard]] std::size_t depth() const;

 private:
  friend class SpiderScheduler;  // `destinations_into` checks the binding
  const Spider* spider_ = nullptr;
  std::size_t num_legs_ = 0;
  std::vector<LegProfile> legs_;  ///< the first `num_legs_` serve the spider
};

/// One leg in the identical-task greedy's order, with what it kept.
struct GreedyLeg {
  Time comm = 0;         ///< the leg's `c_1`; legs join by `(comm, leg)`
  std::size_t leg = 0;
  std::size_t kept = 0;  ///< the prefix of its ranks it keeps
};

/// One node of the greedy's selection, in EDD order.
struct GreedyNode {
  Time deadline = 0;
  Time comm = 0;
  Time end = 0;  ///< completion when the selection runs back-to-back from 0
};

/// Reusable buffers for `SpiderScheduler::count_within` and the makespan
/// search's probes.  Keep one per thread; with warm buffers a whole count —
/// the greedy's lazy profile reads and merges, or a release-dated build and
/// DP — runs without allocating.
struct SpiderCountScratch {
  ChainCountScratch chain;            ///< kept-suffix materialization, shared across legs
  SpiderProfile profile;              ///< the legs' emission profiles
  std::vector<std::size_t> offsets;   ///< the built instance's leg l ids: [offsets[l], offsets[l+1])
  std::vector<EddJob> edd;            ///< the built instance, EDD order as built
  Time build_horizon = 0;             ///< horizon `edd` was built at
  std::vector<EddRun> merge;          ///< the build's p-way merge heap
  std::vector<Time> dp;               ///< positional-release selection DP row
  std::vector<GreedyLeg> legs;        ///< the greedy's legs in join order
  std::vector<GreedyNode> selected;   ///< the greedy's selection
  std::vector<GreedyNode> merged;     ///< the selection with the joining leg's prefix
  /// Ends of the last makespan search: the one-port floor and the top for
  /// identical tasks, `[LB, UB]` with release dates.
  Time floor = 0;
  Time top = 0;
  /// Bisection probes of the last makespan search: greedy counts for
  /// identical tasks, DP passes in `[LB, UB]` with release dates (the
  /// greedy search for `T_id` before them is not counted).
  std::size_t probes = 0;
  /// Fig 7 nodes (profile ranks) built by the last count or solve.
  std::size_t nodes_built = 0;
  /// Positional-release DP positions relaxed by the last count or solve
  /// (`moore_hodgson_released*`); 0 for identical tasks.
  std::size_t dp_cells = 0;
};

/// When a processor's out-port and the processor itself are next free
/// (`SpiderScheduler::start_early`).
struct NodeFree {
  Time port = 0;
  Time proc = 0;
};

/// Reusable buffers for the scratch-reusing materializing path
/// (`schedule_into` / `schedule_within_into`).  Extends the counting scratch
/// with pooled per-leg suffix schedules and the step (3)–(4) working sets.
struct SpiderSolveScratch {
  SpiderCountScratch count;           ///< the built instance: probes and selection
  std::vector<ChainSchedule> legs;    ///< pooled kept-suffix schedules per leg
  std::vector<std::uint64_t> taken;   ///< positional-release selection backtrack bits
  std::vector<EddJob> picked;         ///< positional-release selection, EDD order
  /// Kept suffix length per leg; the start pass then holds each leg's
  /// first node in `free` here.
  std::vector<std::size_t> counts;
  /// Step (4) sequencing: (deadline, leg, task_index), EDD with ties toward
  /// the lower leg, then the earlier task; `task_index` counts a leg's kept
  /// suffix in ascending first emission, so it is rank `counts[leg] - 1 -
  /// task_index` of the leg's profile.
  std::vector<std::tuple<Time, std::size_t, std::size_t>> chosen;
  /// The start pass: when each processor's out-port and the processor
  /// itself are next free, leg `l`'s from `counts[l]` on.
  std::vector<NodeFree> free;
};

class SpiderScheduler {
 public:
  /// Steps (1)-(2): per-leg schedules and the fork-graph instance (Fig 7).
  static SpiderTransformation transform(const Spider& spider, Time t_lim, std::size_t cap);

  /// Decision form: a feasible spider schedule of the maximum number of
  /// tasks (at most `cap`) completing by `t_lim`.
  static SpiderSchedule schedule_within(const Spider& spider, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Spider& spider, Time t_lim, std::size_t cap);

  /// Allocation-free counting: the greedy's count (see above), building
  /// only the nodes it can keep, entirely in `scratch` — never leg
  /// schedules or virtual-node vectors.  Returns exactly
  /// `schedule_within(spider, t_lim, cap).tasks.size()`.  The registry's
  /// `materialize == false` fast path and every probe of the makespan
  /// search run on this.
  static std::size_t count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                  SpiderCountScratch& scratch);

  /// The two steps of a release-dated count (`count_within` runs both at
  /// `t_lim`).  `build_instance` runs steps (1)–(2) at `horizon` — at most
  /// `min(cap, workload.count())` tasks per leg — and merges the legs'
  /// nodes, each leg's already in EDD order, into `scratch.edd` ordered by
  /// `(deadline, comm, id)`, leg `l`'s ids numbered from
  /// `scratch.offsets[l]` in ascending first emission; it accepts any
  /// uniform-size workload.  `probe_instance` then answers step (3) at any
  /// `t_lim` in `[0, horizon]` — for the same release-dated workload and
  /// cap — by shifting and filtering that instance, in one linear
  /// positional-release DP pass.  Equals
  /// `count_within(spider, t_lim, workload, cap, scratch)` at every such
  /// `t_lim`.  It rejects an identical workload (`std::invalid_argument`):
  /// identical-task counts are the greedy's, which builds no instance.
  ///
  /// Both stay public for the reference oracles that probe a built
  /// instance directly.
  // mstlint: allow-next-line(tests-only-api) -- oracles: tests/support/{full_range_release_search,moore_hodgson_oracle}.hpp, test_{search_range,shift_lemma,counting}
  static void build_instance(const Spider& spider, Time horizon, const Workload& workload,
                             std::size_t cap, SpiderCountScratch& scratch);
  // mstlint: allow-next-line(tests-only-api) -- oracles: tests/support/full_range_release_search.hpp, test_{shift_lemma,counting}
  static std::size_t probe_instance(Time t_lim, const Workload& workload, std::size_t cap,
                                    SpiderCountScratch& scratch);

  /// Makespan form: optimal schedule of exactly `n` tasks, started early
  /// (see "Starts" above).
  static SpiderSchedule schedule(const Spider& spider, std::size_t n);

  /// Optimal makespan of `n` tasks.
  static Time makespan(const Spider& spider, std::size_t n);

  /// Workload decision form.  Identical workloads reduce to the methods
  /// above (capped at the workload count).  Release dates bind positionally
  /// on the master's one-port (the j-th emission in time order starts at or
  /// after the j-th smallest release), so step (3) becomes a
  /// positional-release selection (`moore_hodgson_released*`): Moore–Hodgson
  /// alone cannot model a machine whose availability depends on how many
  /// jobs were already selected, the DP can.  Steps (1), (2) and (4) are
  /// unchanged — the node deadlines still guarantee every selected emission
  /// completes no later than the leg schedule planned (Lemma 3), so the
  /// release-delayed re-sequencing stays legal.  Non-uniform sizes are
  /// rejected.
  static std::size_t count_within(const Spider& spider, Time t_lim, const Workload& workload,
                                  std::size_t cap, SpiderCountScratch& scratch);
  static SpiderSchedule schedule_within(const Spider& spider, Time t_lim,
                                        const Workload& workload, std::size_t cap);

  /// Workload makespan form: binary search of the minimal horizon over the
  /// release-aware count, in the bracket `[LB, UB]` (see "Search cost"
  /// above), then the start pass; the result keeps absolute times (no
  /// normalization — release dates pin the origin).
  static SpiderSchedule schedule(const Spider& spider, const Workload& workload);

  // -------------------------------------------------------------------------
  // One pipeline.  Steps (1)–(3) are the greedy for identical tasks and
  // the built instance plus the DP with release dates; the `_into` forms
  // then materialize only the kept suffix of each leg.  The value-returning
  // forms are a local scratch around the `_into` forms, which rebuild `out`
  // in place so repeated solves on warm scratch perform zero heap
  // allocations.

  /// `schedule_within(spider, t_lim, cap)` into `out`.
  static void schedule_within_into(const Spider& spider, Time t_lim, std::size_t cap,
                                   SpiderSolveScratch& scratch, SpiderSchedule& out);

  /// `schedule_within(spider, t_lim, workload, cap)` into `out`.
  static void schedule_within_into(const Spider& spider, Time t_lim, const Workload& workload,
                                   std::size_t cap, SpiderSolveScratch& scratch,
                                   SpiderSchedule& out);

  /// `schedule(spider, workload)` into `out`.
  static void schedule_into(const Spider& spider, const Workload& workload,
                            SpiderSolveScratch& scratch, SpiderSchedule& out);

  /// Destinations-only makespan form: the `(leg, proc)` of each task of
  /// `schedule(spider, n)`, in its master-emission order, into `out`.  The
  /// same search and selection, read straight off the profiles: no leg
  /// schedule is materialized, resequenced, normalized or started early.
  /// Unlike every other form it keeps the ranks `scratch.count.profile`
  /// holds, which must be bound to `spider` (`SpiderProfile::reset`), so
  /// repeated solves on one spider build each rank once; `nodes_built`
  /// counts the ranks this solve added.
  static void destinations_into(const Spider& spider, std::size_t n, SpiderSolveScratch& scratch,
                                std::vector<SpiderDest>& out);

  /// The start pass of the makespan forms (see "Starts" above) on `out`, in
  /// place: its tasks in master-emission order, each leg's in the order its
  /// processors relay and run them.  Master emissions stay; no time moves
  /// later.  The registry's fork decisions run it after `schedule_within_into`.
  static void start_early(SpiderSolveScratch& scratch, SpiderSchedule& out);
};

}  // namespace mst
