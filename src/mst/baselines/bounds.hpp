#pragma once

#include <cstddef>
#include <span>
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

/// Reusable buffer for the one-port fill of the lower bound; keep one per
/// thread and the bound below allocates nothing once warm.
using OnePortScratch = std::vector<std::pair<Time, double>>;

/// Makespan lower bound of `n` identical tasks on a chain or spider, given
/// by its legs (`legs_of`; a chain is the one-leg spider, on which the
/// master's one-port fill returns the chain's own rate `λ_0` bit for bit,
/// since `λ_0 <= 1/c_0`): `max(port+tail floor, single-task path, ceil(n /
/// rate))` — every term is a valid bound, the max is reported.
Time makespan_lower_bound(std::span<const Chain> legs, std::size_t n, OnePortScratch& scratch);

/// Allocating convenience form of the above.
Time makespan_lower_bound(std::span<const Chain> legs, std::size_t n);

}  // namespace mst
