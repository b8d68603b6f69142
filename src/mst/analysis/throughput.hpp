#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "mst/common/time.hpp"
#include "mst/platform/any.hpp"
#include "mst/platform/chain.hpp"

/// \file throughput.hpp
/// Makespan-curve analysis: how the optimal makespan grows with the task
/// count, and how quickly it enters the steady-state regime.
///
/// For any one-port platform the optimal makespan curve `M(n)` is
/// eventually *affine*: `M(n) ≈ startup + n/rate`, where `rate` is the
/// bandwidth-centric steady-state rate (bounds.hpp) — the finite schedule
/// pays a fixed pipeline fill/drain cost and then absorbs tasks at the LP
/// rate.  This module computes the curve, the marginal cost per task, and
/// fits the affine tail, giving the "time to first task" vs "cost per
/// additional task" split that capacity planners actually need.
///
/// This layer knows nothing about the algorithm registry: makespans reach
/// it through a sampling callback.  The registry-dispatched convenience
/// overload lives one layer up, in `mst/api/curves.hpp`.

namespace mst {

/// The optimal makespan curve and its derived quantities.
struct ThroughputCurve {
  std::vector<std::size_t> n;      ///< task counts sampled
  std::vector<Time> makespan;      ///< optimal makespan at each count
  std::vector<Time> marginal;      ///< makespan[i] - makespan[i-1] (0 for i=0)

  double steady_rate = 0.0;        ///< LP steady-state rate of the platform
  double fitted_rate = 0.0;        ///< 1 / mean marginal cost over the tail
  Time fitted_startup = 0;         ///< M(n_max) - n_max / fitted_rate

  /// Fraction of the LP rate achieved at the largest sampled n.
  [[nodiscard]] double efficiency_at_tail() const;
};

/// Samples `M(n)` at the given counts (must be increasing, >= 1), calling
/// `makespan_of(n)` once per count, and fits the affine tail.  The steady
/// rate comes from the matching LP bound for `platform` (bounds.hpp, per
/// kind; forks embed as single-processor-leg spiders, trees use the
/// bandwidth-centric tree rate).  One chain emission profile
/// (`LegProfile::makespan`) gives every optimal chain sample.
ThroughputCurve throughput_curve(const Platform& platform,
                                 const std::vector<std::size_t>& ns,
                                 const std::function<Time(std::size_t)>& makespan_of);

/// Smallest n at which the optimal schedule achieves `fraction` of the
/// steady-state rate (linear scan with doubling; `fraction` in (0,1)).
std::size_t tasks_to_reach_rate_fraction(const Chain& chain, double fraction,
                                         std::size_t n_cap = 1 << 16);

}  // namespace mst
