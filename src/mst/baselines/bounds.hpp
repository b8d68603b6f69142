#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "mst/common/time.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

/// \file bounds.hpp
/// Steady-state (bandwidth-centric) throughput and derived makespan lower
/// bounds — the divisible-load view the paper situates itself against (§1,
/// and the steady-state analysis of Beaumont et al. [2]).
///
/// The LP "how many tasks per time unit can the platform absorb" has the
/// classic nested/greedy solution:
///  * chain:  `λ_k = min(1/c_k, 1/w_k + λ_{k+1})`, rate = `λ_0`;
///  * spider: per-leg rates capped by the master's one-port,
///    `Σ μ_l·c_{l,1} <= 1`, filled in ascending `c_{l,1}` order;
///  * tree:   recursive bandwidth-centric allocation at every node.
/// Busy-time arguments make `rate·T` an upper bound on tasks completable in
/// any window `T`, hence `n/rate` a lower bound on the optimal makespan.
/// The STEADY experiment confirms the paper's optimal schedules approach
/// these rates as `n → ∞`.

namespace mst {

/// Asymptotic tasks-per-time-unit of a chain (LP optimum).
double chain_steady_state_rate(const Chain& chain);

/// Asymptotic rate of a spider under the master's one-port constraint.
double spider_steady_state_rate(const Spider& spider);

/// Recursive bandwidth-centric rate of a general tree (root = master,
/// which forwards but does not compute).
double tree_steady_state_rate(const Tree& tree);

/// Reusable buffer for the one-port fill of the spider bounds; keep
/// one per thread and the bound computations below allocate nothing.
using OnePortScratch = std::vector<std::pair<Time, double>>;

/// Makespan lower bounds: `max(path+work floor, ceil(n/rate-ish))` — every
/// term is a valid bound, the max is reported.
Time chain_makespan_lower_bound(const Chain& chain, std::size_t n);
Time spider_makespan_lower_bound(const Spider& spider, std::size_t n);

/// Scratch-reusing twin (identical value; warm scratch ⇒ no allocation).
Time spider_makespan_lower_bound(const Spider& spider, std::size_t n, OnePortScratch& scratch);

}  // namespace mst
