#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mst/core/moore_hodgson.hpp"
#include "mst/platform/fork.hpp"
#include "mst/schedule/fork_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file fork_scheduler.hpp
/// Scheduling on fork (star) platforms — §6 of the paper, after Beaumont,
/// Carter, Ferrante, Legrand, Robert (IPDPS 2002).
///
/// The decision form "how many tasks finish within `T_lim`?" is solved by
/// (a) expanding every slave into virtual single-task nodes (Fig 6), and
/// (b) selecting a maximum feasible node set on the master's one-port —
/// a `1 || ΣU_j` instance solved optimally by Moore–Hodgson
/// (`moore_hodgson.hpp`).  The selection is normalized per slave to the
/// smallest-exec prefix (pure deadline relaxation, count preserved), which
/// makes it realizable as an actual schedule.  The paper's original
/// ascending-`c` greedy is kept as `greedy_max_tasks` for cross-checking
/// and for the heuristic-comparison experiment.

namespace mst {

/// Reusable buffers of the fork build, select and sequencing steps
/// (counting and materializing alike).  Keep one per thread: with warm
/// buffers the count — the merged node instance plus the count-only
/// Moore–Hodgson selection — the makespan search and the materialization
/// perform no heap allocation at all, matching the chain/spider paths.
struct ForkCountScratch {
  std::vector<EddJob> edd;          ///< the Fig 6 node instance, EDD order as built
  std::vector<std::size_t> offsets;  ///< slave i's node ids: [offsets[i], offsets[i+1])
  Time build_horizon = 0;           ///< horizon `edd` was built at
  Time floor = 0;                   ///< lower end of the last makespan search
  std::vector<EddRun> merge;        ///< the build's p-way merge heap
  std::vector<Time> heap;           ///< count-only Moore–Hodgson heap
  std::vector<Time> dp;             ///< positional-release selection DP row
  std::vector<SelectedJob> sel_heap;    ///< Moore–Hodgson selection with ids
  std::vector<std::uint64_t> taken;     ///< positional-release selection backtrack bits
  std::vector<EddJob> picked;           ///< positional-release selection, EDD order
  std::vector<std::size_t> counts;      ///< selected tasks per slave
  std::vector<std::pair<Time, std::size_t>> seq;  ///< (deadline, slave) sequencing
  std::vector<Time> slave_free;         ///< per-slave completion during replay
  std::size_t probes = 0;               ///< bisection probes of the last makespan search
};

class ForkScheduler {
 public:
  /// Decision form: a feasible schedule of the maximum number of tasks — at
  /// most `cap` — all completing by `t_lim`.  Master emissions are sequenced
  /// EDD back-to-back from time 0.
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Allocation-free counting: the *build* step merges each slave's
  /// virtual nodes into `scratch.edd` (never building node vectors); the
  /// *probe* step runs the count-only Moore–Hodgson selection over them in
  /// `scratch.heap`.  Returns exactly `schedule_within(fork, t_lim,
  /// cap).tasks.size()`.  The registry's `materialize == false` fast path
  /// runs on this; the makespan search runs the same two steps, building
  /// once (see `schedule_into`).
  static std::size_t count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                  ForkCountScratch& scratch);

  /// Count *and* completion time of the decision-form schedule, still
  /// allocation-free: the build, select and sequencing steps of
  /// `schedule_within` with a makespan sink, so the registry fast path
  /// reports the same (tasks, makespan) pair as the materializing path
  /// without ever building task vectors.
  static std::pair<std::size_t, Time> makespan_within(const Fork& fork, Time t_lim,
                                                      std::size_t cap,
                                                      ForkCountScratch& scratch);

  /// Workload decision form: release dates bind positionally on the
  /// master's one-port (see spider_scheduler.hpp — forks share the
  /// positional-release selection DP).  Identical workloads reduce to the
  /// methods above capped at the workload count; non-uniform sizes are
  /// rejected.
  static std::size_t count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                  std::size_t cap, ForkCountScratch& scratch);
  static ForkSchedule schedule_within(const Fork& fork, Time t_lim, const Workload& workload,
                                      std::size_t cap);

  /// The two steps of every count (`count_within` runs both at `t_lim`).
  /// `build_instance` enumerates the Fig 6 nodes at `horizon` — at most
  /// `min(cap, workload.count())` per slave, slave `i`'s ranks numbered
  /// from `scratch.offsets[i]` — and merges the slaves' runs, each already
  /// in EDD order, into `scratch.edd` ordered by `(deadline, comm, id)`;
  /// `probe_instance` then answers the count at any `t_lim` in
  /// `[0, horizon]` — for the same workload and cap — by shifting and
  /// filtering that instance, in one linear Moore–Hodgson (or
  /// positional-release DP) pass.  Equals `count_within(fork, t_lim,
  /// workload, cap, scratch)` at every such `t_lim`.
  static void build_instance(const Fork& fork, Time horizon, const Workload& workload,
                             std::size_t cap, ForkCountScratch& scratch);
  static std::size_t probe_instance(Time t_lim, const Workload& workload, std::size_t cap,
                                    ForkCountScratch& scratch);

  /// Workload makespan form: minimal horizon by binary search over the
  /// release-aware count (absolute times; no shift).  Same search as below,
  /// with the positional-release DP as the probe pass and the selection.
  static ForkSchedule schedule(const Fork& fork, const Workload& workload);

  /// Makespan form: optimal schedule of exactly `n` tasks, found by binary
  /// search on `t_lim` over the monotone decision form.  The search builds
  /// the node instance once, at the top of its range — one p-way merge of
  /// the slaves' `O(p·n)` nodes, no sort — and every probe shifts and
  /// filters it (`core/kernels.hpp`, `min_horizon`).  It starts at the
  /// one-port floor (`detail::SearchRange`, kept in `scratch.floor`), not 0,
  /// so it runs at most `ceil(log2(top - floor + 1))` linear Moore–Hodgson
  /// probes, and none when the floor meets the top — when one slave has
  /// both the minimum `c` and the minimum `c + w`, with `w <= c`.  The
  /// optimum is then selected and sequenced from the same instance.  This
  /// horizon-invariance of the instance is a result beyond the paper, which
  /// re-solves the decision form per probe.
  static ForkSchedule schedule(const Fork& fork, std::size_t n);

  /// Optimal makespan of `n` tasks.
  static Time makespan(const Fork& fork, std::size_t n);

  /// The paper's §6 greedy (Beaumont et al. [2]): sort slaves by ascending
  /// communication time (ties by processing time), then fill each slave with
  /// further virtual nodes while the insertion stays EDD-feasible.  Returns
  /// the task count.  Cross-checked against `max_tasks` in the test suite.
  static std::size_t greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Materializes the greedy selection as an actual schedule (same EDD
  /// sequencing as the optimal path; counts come from the greedy).
  static ForkSchedule greedy_schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  // -------------------------------------------------------------------------
  // One algorithm, three steps.  The *build* step merges the node instance;
  // the *select* step runs Moore–Hodgson on it (shifted to the window),
  // counts per slave and trims to the global cap; the EDD *sequencing* step
  // then feeds either a makespan sink (`makespan_within`) or a task sink
  // (the `_into` forms, and the greedy's materialization).  The
  // value-returning forms are a local scratch around the `_into` forms,
  // which rebuild `out` in place so repeated solves on warm scratch perform
  // zero heap allocations.

  /// `schedule_within(fork, t_lim, cap)` into `out`.
  static void schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                   ForkCountScratch& scratch, ForkSchedule& out);

  /// `schedule_within(fork, t_lim, workload, cap)` into `out`.
  static void schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                   std::size_t cap, ForkCountScratch& scratch,
                                   ForkSchedule& out);

  /// `schedule(fork, workload)` into `out`; the search builds its instance
  /// in `scratch` once, and every bisection probe and the final selection
  /// reuse it (`scratch.probes` counts the probes).
  static void schedule_into(const Fork& fork, const Workload& workload,
                            ForkCountScratch& scratch, ForkSchedule& out);
};

}  // namespace mst
