#pragma once

#include <cstddef>
#include <vector>

#include "mst/baselines/asap.hpp"
#include "mst/common/rational.hpp"
#include "mst/platform/chain.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file periodic.hpp
/// Exact steady-state rates and periodic schedule construction for chains —
/// the bandwidth-centric program of Beaumont et al. [2] made concrete.
///
/// `bounds.hpp` computes the chain's aggregate LP rate in doubles (enough
/// for bounds); this module solves the same LP *exactly* in rationals and
/// per processor:
///
///     maximize   Σ_q x_q
///     subject to x_q <= 1/w_q                    (processor speed)
///                Σ_{j>=k} x_j <= 1/c_k  ∀k       (link k busy time)
///
/// The nested constraint structure makes a forward greedy optimal: allocate
/// processors near the master first — they consume capacity on fewer links.
/// From the exact rates a *periodic pattern* follows: over a hyperperiod of
/// `H` time units (the lcm of the rate denominators) processor `q` receives
/// exactly `x_q·H` tasks; interleaving those counts evenly and repeating
/// the block yields an explicit schedule whose throughput converges to the
/// LP optimum — the steady-state counterpart of the paper's exact finite
/// construction.

namespace mst {

/// One period of the bandwidth-centric schedule.
struct PeriodicPattern {
  std::vector<Rational> rates;      ///< exact per-processor LP rates; their sum
                                    ///< is `chain_steady_state_rate` up to rounding
  Time hyperperiod = 0;             ///< H: lcm of rate denominators
  std::vector<std::size_t> counts;  ///< tasks per processor per period (x_q·H)
  std::vector<std::size_t> block;   ///< destination sequence of one period,
                                    ///< counts interleaved evenly (Bresenham)

  [[nodiscard]] std::size_t tasks_per_period() const { return block.size(); }
  [[nodiscard]] double rate() const;  ///< Σ rates as a double
};

/// Builds the pattern; throws if the chain has zero total rate (impossible
/// for valid platforms: w >= 1 gives every processor positive speed, only
/// an all-zero-capacity link chain could stall, and c=0 means infinite
/// capacity instead).
PeriodicPattern chain_periodic_pattern(const Chain& chain);

/// The periodic baseline: the repeated block's destinations, timed ASAP
/// into `out` on `state` (`asap_replay_into`), returning the makespan.
/// Task `i` goes to block position `i mod tasks_per_period`, built as the
/// replay reaches it, never the whole block: the block of a chain with
/// nearly coprime times can hold trillions of entries.  Prefix-stable, so a
/// deadline `stop` gives its decision form in the same one replay.
Time chain_periodic(const Chain& chain, const Workload& workload, TreeAsapState& state,
                    ChainSchedule& out, const ReplayStop& stop = {});

}  // namespace mst
