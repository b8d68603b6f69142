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
/// makespan earlier.  The paper's §6 selection — slaves by ascending `c`,
/// each adding its Fig 6 nodes while the selection stays EDD-feasible — is
/// that spider greedy on unit legs, so the fork keeps no greedy of its own:
/// the registry's fork `greedy` entry runs the forms below too.

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
  /// over the release-aware count, bracketed between the identical-task
  /// optimum and its release-delayed selection (absolute times; no shift).
  static SpiderSchedule schedule(const Fork& fork, const Workload& workload);

  /// Makespan form: optimal schedule of exactly `n` tasks — the spider's
  /// search from the one-port floor (its ends in `scratch.solve.count.floor`
  /// and `top`, probes in `scratch.solve.count.probes`).
  static SpiderSchedule schedule(const Fork& fork, std::size_t n);

  /// Optimal makespan of `n` tasks.
  static Time makespan(const Fork& fork, std::size_t n);

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
