#pragma once

#include <cstddef>

#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file brute_force.hpp
/// `brute_force_makespan` / `brute_force_schedule` / `brute_force_max_tasks`
/// on a chain or a spider: the exhaustive exact optimum, ground truth for
/// Theorem 1 / Theorem 3 validation.  A fork runs as its unit-leg spider
/// (`Spider::from_fork`).
///
/// For identical tasks the search space collapses to *destination
/// sequences*: per-link FIFO order is WLOG (identical tasks can be relabeled
/// to uncross any two communications, cf. Lemma 1), and for a fixed sequence
/// ASAP forward timing is optimal because every completion time is monotone
/// in every resource-availability input.  The search is a DFS over the
/// `p^n` sequences with branch-and-bound pruning on the partial makespan:
/// the one search of `tree_asap.hpp` (`brute_force_makespan` on a
/// `TreeAsapState`), run on the chain's or spider's engine nodes in
/// ascending order — by processor on a chain, by leg then by processor on a
/// spider.
///
/// Cost is exponential — intended for instances around `n <= 9`, `p <= 4`
/// (tests) and the OPT-* experiment tables; the library's schedulers solve
/// the same instances in polynomial time.

namespace mst {

/// Exact optimal makespan of `n` identical tasks on a chain or a spider
/// (master one-port across legs); a fork passes `Spider::from_fork`.
Time brute_force_makespan(const Chain& chain, std::size_t n);
Time brute_force_makespan(const Spider& spider, std::size_t n);

/// Exact optimal schedule (the first minimizer the search finds).
ChainSchedule brute_force_schedule(const Chain& chain, std::size_t n);
SpiderSchedule brute_force_schedule(const Spider& spider, std::size_t n);

/// Exact decision form: the maximum number of tasks (at most `cap`)
/// completable within `t_lim`.  Computed by searching the smallest `k` whose
/// exact optimal makespan exceeds `t_lim` (optimal makespan is monotone in
/// the task count).
template <typename Shape>
std::size_t brute_force_max_tasks(const Shape& shape, Time t_lim, std::size_t cap) {
  std::size_t count = 0;
  while (count < cap && brute_force_makespan(shape, count + 1) <= t_lim) ++count;
  return count;
}

}  // namespace mst
