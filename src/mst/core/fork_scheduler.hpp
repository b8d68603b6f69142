#pragma once

#include <cstddef>
#include <vector>

#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file fork_scheduler.hpp
/// Scheduling on fork (star) platforms — §6 of the paper, after Beaumont,
/// Carter, Ferrante, Legrand, Robert (IPDPS 2002).
///
/// A fork is the spider whose legs all have length 1, and for such a leg
/// the Fig 7 virtual nodes are exactly the Fig 6 nodes: the backward
/// construction on one processor `(c, w)` gives its q-th latest task the
/// emission deadline `T_lim - (w + q·max(c, w))`.  So every exact form
/// below runs the spider pipeline (`spider_scheduler.hpp`: the lazy
/// ascending-`c` greedy for identical tasks, or the built instance and the
/// positional-release selection with release dates; search; resequencing) on
/// the fork as a unit-leg spider, rebuilt in the scratch in place, and every
/// form returns that spider's schedule: slave `i` is leg `i`, each task runs
/// on the leg's only processor (`proc = 0`), and `emissions` holds its one
/// master emission.  There is no separate fork schedule type; the spider
/// checker (`check_feasibility`) covers every fork condition.  One pass then
/// rewrites each task's start in place to the moment it has arrived and its
/// slave is free, `max(emission + c, slave free)`, where the spider keeps
/// its planned, as-late-as-possible start.  The earlier start never ends
/// later, so every deadline still holds; with release dates it can end a
/// makespan earlier.  The paper's own form of the greedy — slaves by
/// ascending `c`, ties by `w`, over each slave's Fig 6 nodes — is kept
/// (`greedy_*`, the registry's fork `greedy`) for cross-checking and for the
/// heuristic-comparison experiment.

namespace mst {

/// Reusable buffers of every exact fork solve (counting and materializing
/// alike).  Keep one per thread: with warm buffers, counts, makespan
/// searches and materializations on forks of as many slaves perform no
/// heap allocation at all, matching the chain/spider paths.
struct ForkCountScratch {
  Spider spider;                 ///< the fork as a unit-leg spider, rebuilt in place
  SpiderSolveScratch solve;      ///< the spider pipeline's buffers
  std::vector<Time> slave_free;  ///< per-slave completion during the start pass
};

class ForkScheduler {
 public:
  /// Decision form: a feasible schedule of the maximum number of tasks — at
  /// most `cap` — all completing by `t_lim`.  Master emissions are sequenced
  /// EDD back-to-back from time 0.
  static SpiderSchedule schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  /// Count-only decision form (private scratch; see `count_within`).
  static std::size_t max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Allocation-free counting: the spider count of the unit-leg spider.
  /// Returns exactly `schedule_within(fork, t_lim, cap).tasks.size()`.
  static std::size_t count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                  ForkCountScratch& scratch);

  /// Workload decision form: release dates bind positionally on the
  /// master's one-port (see spider_scheduler.hpp).  Identical workloads
  /// reduce to the methods above capped at the workload count; non-uniform
  /// sizes are rejected.
  static std::size_t count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                  std::size_t cap, ForkCountScratch& scratch);
  static SpiderSchedule schedule_within(const Fork& fork, Time t_lim, const Workload& workload,
                                        std::size_t cap);

  /// Workload makespan form: the spider's search of the minimal horizon
  /// over the release-aware count (absolute times; no shift).
  static SpiderSchedule schedule(const Fork& fork, const Workload& workload);

  /// Makespan form: optimal schedule of exactly `n` tasks — the spider's
  /// search on one built instance, from the one-port floor
  /// (`scratch.solve.count.floor`, probes in `scratch.solve.count.probes`).
  static SpiderSchedule schedule(const Fork& fork, std::size_t n);

  /// Optimal makespan of `n` tasks.
  static Time makespan(const Fork& fork, std::size_t n);

  /// The paper's §6 greedy (Beaumont et al. [2]): sort slaves by ascending
  /// communication time (ties by processing time), then fill each slave with
  /// further virtual nodes while the insertion stays EDD-feasible.  Returns
  /// the task count.  Cross-checked against `max_tasks` in the test suite.
  /// Each slave's nodes join in one bisection over how many of its ranks
  /// still fit, each test a linear merge with the EDD-ordered selection.
  static std::size_t greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap);

  /// Materializes the greedy selection as an actual schedule: its nodes in
  /// EDD order, emitted back-to-back from 0, each task started as soon as
  /// it has arrived and its slave is free.
  static SpiderSchedule greedy_schedule_within(const Fork& fork, Time t_lim, std::size_t cap);

  /// Makespan form of the greedy: the greedy schedule of `n` tasks in the
  /// smallest window whose selection reaches `n`, bisected over the
  /// spider's search range (`detail::SearchRange`: from the one-port floor
  /// up to the best slave's own n-task pipeline, skipping a slave whose
  /// pipeline overflows).  The greedy count is the optimal count, so the
  /// top always admits `n` tasks.
  static SpiderSchedule greedy_schedule(const Fork& fork, std::size_t n);

  // -------------------------------------------------------------------------
  // The `_into` forms rebuild `out` in place, so repeated solves on warm
  // scratch perform zero heap allocations; the value-returning forms are a
  // local scratch around them.

  /// `schedule_within(fork, t_lim, cap)` into `out`.
  static void schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                   ForkCountScratch& scratch, SpiderSchedule& out);

  /// `schedule_within(fork, t_lim, workload, cap)` into `out`.
  static void schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                   std::size_t cap, ForkCountScratch& scratch,
                                   SpiderSchedule& out);

  /// `schedule(fork, workload)` into `out`.
  static void schedule_into(const Fork& fork, const Workload& workload,
                            ForkCountScratch& scratch, SpiderSchedule& out);
};

}  // namespace mst
