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
///       (the fork-graph step; Moore–Hodgson here);
///   (4) revert: a leg with `k` selected nodes executes the *last `k`
///       tasks* of its chain schedule — optimal for `k` tasks by the
///       backward construction (Lemma 4) — with master emissions moved to
///       the (earlier) times chosen in step (3), which is feasible by
///       Lemma 3.
/// The makespan form binary-searches `T_lim` over the monotone decision
/// form; total complexity stays polynomial (Theorem 2) and the result is
/// optimal (Theorem 3).
///
/// Search cost — a result beyond the paper, which re-runs steps (1)–(3) per
/// probe: steps (1)–(2) only shift with the window (the backward
/// construction's emissions at `T <= H` are those at `H` shifted by
/// `T - H` and cut before the first negative one; see `min_horizon` in
/// `core/kernels.hpp`).  So the search runs steps (1)–(2) once, at the top
/// of its range — one backward construction per leg, and one p-way merge
/// of the legs' node runs, each already in EDD order — and each probe is a
/// single linear Moore–Hodgson pass over the shifted instance, with no
/// sort.  It starts at the one-port floor (`detail::SearchRange`, kept in
/// `SpiderCountScratch::floor`), not 0, so it runs at most
/// `ceil(log2(top - floor + 1))` probes, and none when the floor meets the
/// top — when one leg's first processor `(c, w)` has the minimum `c_{l,1}`,
/// `w <= c` and the minimum path latency plus `w`.  Steps (3)–(4) at the
/// optimum select from the same instance and rebuild only each leg's kept
/// suffix — its first `k` construction steps — not the whole leg.

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

/// Reusable buffers for `SpiderScheduler::count_within` and the makespan
/// search's build and probes.  Keep one per thread; with warm buffers the
/// whole spider count — per-leg backward counting, the merged instance and
/// the Moore–Hodgson selection — runs without allocating.
struct SpiderCountScratch {
  ChainCountScratch chain;            ///< shared across legs
  std::vector<Time> emissions;        ///< first-link emissions, leg after leg, latest first
  std::vector<std::size_t> offsets;   ///< leg l's emissions and ids: [offsets[l], offsets[l+1])
  std::vector<EddJob> edd;            ///< the fork-graph instance, EDD order as built
  Time build_horizon = 0;             ///< horizon `edd` was built at
  Time floor = 0;                     ///< lower end of the last makespan search
  std::vector<EddRun> merge;          ///< the build's p-way merge heap
  std::vector<Time> heap;             ///< Moore–Hodgson selection heap
  std::vector<Time> dp;               ///< positional-release selection DP row
  std::size_t probes = 0;             ///< bisection probes of the last makespan search
};

/// Reusable buffers for the scratch-reusing materializing path
/// (`schedule_into` / `schedule_within_into`).  Extends the counting scratch
/// with pooled per-leg suffix schedules and the step (3)–(4) working sets.
struct SpiderSolveScratch {
  SpiderCountScratch count;           ///< the built instance: probes and selection
  std::vector<ChainSchedule> legs;    ///< pooled kept-suffix schedules per leg
  std::vector<SelectedJob> sel_heap;  ///< Moore–Hodgson selection with ids
  std::vector<std::uint64_t> taken;   ///< positional-release selection backtrack bits
  std::vector<EddJob> picked;         ///< positional-release selection, EDD order
  std::vector<std::size_t> counts;    ///< kept suffix length per leg
  /// Step (4) sequencing: (deadline, leg, task_index), EDD with ties toward
  /// the lower leg, then the earlier task.
  std::vector<std::tuple<Time, std::size_t, std::size_t>> chosen;
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

  /// Allocation-free counting: the *build* step runs the per-leg backward
  /// construction with a first-emissions sink, merged into an EDD-ordered
  /// node instance, the *probe* step the count-only Moore–Hodgson selection over
  /// it — entirely in `scratch`, never materializing leg schedules or
  /// virtual-node vectors.  Returns exactly
  /// `schedule_within(spider, t_lim, cap).tasks.size()`.  The registry's
  /// `materialize == false` fast path runs on this; the makespan search
  /// runs the same two steps, building once.
  static std::size_t count_within(const Spider& spider, Time t_lim, std::size_t cap,
                                  SpiderCountScratch& scratch);

  /// The two steps of every count (`count_within` runs both at `t_lim`).
  /// `build_instance` runs steps (1)–(2) at `horizon` — at most
  /// `min(cap, workload.count())` tasks per leg — and merges the legs'
  /// nodes, each leg's already in EDD order, into `scratch.edd` ordered by
  /// `(deadline, comm, id)`, leg `l`'s ids numbered from
  /// `scratch.offsets[l]` in ascending first emission; `probe_instance` then
  /// answers step (3) at any `t_lim` in `[0, horizon]` — for the same
  /// workload and cap — by shifting and filtering that instance, in one
  /// linear Moore–Hodgson (or positional-release DP) pass.  Equals
  /// `count_within(spider, t_lim, workload, cap, scratch)` at every such
  /// `t_lim`.
  static void build_instance(const Spider& spider, Time horizon, const Workload& workload,
                             std::size_t cap, SpiderCountScratch& scratch);
  static std::size_t probe_instance(Time t_lim, const Workload& workload, std::size_t cap,
                                    SpiderCountScratch& scratch);

  /// Makespan form: optimal schedule of exactly `n` tasks.
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
  /// release-aware count; the result keeps absolute times (no
  /// normalization — release dates pin the origin).
  static SpiderSchedule schedule(const Spider& spider, const Workload& workload);

  // -------------------------------------------------------------------------
  // One pipeline on one built instance.  Steps (1)–(2) run the chain kernel
  // on every leg with the first-emissions sink (`build_instance`); counts,
  // probes and the `_into` forms' selection all read that instance, and
  // the `_into` forms materialize only the kept suffix of each leg.  The value-returning
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
};

}  // namespace mst
