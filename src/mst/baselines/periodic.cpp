#include "mst/baselines/periodic.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

double PeriodicPattern::rate() const {
  double total = 0.0;
  for (const Rational& r : rates) total += r.to_double();
  return total;
}

namespace {

/// Exact per-processor LP rates, by the forward greedy.
std::vector<Rational> chain_lp_rates(const Chain& chain) {
  const std::size_t p = chain.size();
  // residual[k]: remaining capacity of link k (1/c_k minus allocations);
  // `unbounded[k]` marks zero-latency links.
  std::vector<Rational> residual(p, Rational(0));
  std::vector<bool> unbounded(p, false);
  for (std::size_t k = 0; k < p; ++k) {
    if (chain.comm(k) == 0) {
      unbounded[k] = true;
    } else {
      residual[k] = Rational(1, chain.comm(k));
    }
  }

  std::vector<Rational> rates(p, Rational(0));
  for (std::size_t q = 0; q < p; ++q) {
    // Processor q is capped by its speed and by every link on its path.
    Rational x(1, chain.work(q));
    for (std::size_t k = 0; k <= q; ++k) {
      if (!unbounded[k]) x = Rational::min(x, residual[k]);
    }
    if (x.is_zero()) continue;
    rates[q] = x;
    for (std::size_t k = 0; k <= q; ++k) {
      if (!unbounded[k]) residual[k] = residual[k] - x;
    }
  }
  return rates;
}

/// Rates, hyperperiod and per-period counts of the pattern — everything but
/// the block.  Returns the block length (total tasks per period).
std::size_t pattern_counts(const Chain& chain, PeriodicPattern& pattern) {
  pattern.rates = chain_lp_rates(chain);

  // Hyperperiod: lcm of the denominators of the non-zero rates.
  std::int64_t h = 1;
  bool any = false;
  for (const Rational& r : pattern.rates) {
    if (!r.is_zero()) {
      h = lcm64(h, r.den());
      any = true;
    }
  }
  MST_REQUIRE(any, "chain has zero steady-state rate");
  pattern.hyperperiod = h;

  pattern.counts.resize(pattern.rates.size(), 0);
  std::size_t total = 0;
  for (std::size_t q = 0; q < pattern.rates.size(); ++q) {
    const Rational tasks = pattern.rates[q] * Rational(h);
    MST_ASSERT(tasks.den() == 1 && tasks.num() >= 0);
    pattern.counts[q] = static_cast<std::size_t>(tasks.num());
    total += pattern.counts[q];
  }
  MST_ASSERT(total >= 1);
  return total;
}

/// The processor at 1-based position `i` of the block interleaving
/// `counts` (which sum to `total`), given how many each has had earlier in
/// the block (`emitted`, updated).  Position `i` depends only on the counts,
/// the total and `i`, so a prefix is the whole block's prefix.
std::size_t interleave_step(const std::vector<std::size_t>& counts, std::size_t total,
                            std::size_t i, std::vector<std::size_t>& emitted) {
  // Evenly interleave the counts (per-processor Bresenham): at block
  // position i, emit processor q when its accumulated share crosses the
  // next integer.  Smooth interleaving keeps every link's load spread out,
  // which is what lets ASAP timing track the fluid schedule.  The
  // processor whose deficit (expected share - emitted) is largest wins,
  // ties toward the nearer processor.
  std::size_t best = counts.size();
  double best_deficit = -1e300;
  for (std::size_t q = 0; q < counts.size(); ++q) {
    if (counts[q] == 0) continue;
    const double expected =
        static_cast<double>(counts[q]) * static_cast<double>(i) / static_cast<double>(total);
    const double deficit = expected - static_cast<double>(emitted[q]);
    if (deficit > best_deficit + 1e-12) {
      best_deficit = deficit;
      best = q;
    }
  }
  MST_ASSERT(best < counts.size());
  ++emitted[best];
  return best;
}

}  // namespace

PeriodicPattern chain_periodic_pattern(const Chain& chain) {
  PeriodicPattern pattern;
  const std::size_t total = pattern_counts(chain, pattern);
  std::vector<std::size_t> emitted(pattern.counts.size(), 0);
  pattern.block.reserve(total);
  for (std::size_t i = 1; i <= total; ++i) {
    pattern.block.push_back(interleave_step(pattern.counts, total, i, emitted));
  }
  return pattern;
}

Time chain_periodic(const Chain& chain, const Workload& workload, TreeAsapState& state,
                    ChainSchedule& out, const ReplayStop& stop) {
  PeriodicPattern pattern;
  const std::size_t total = pattern_counts(chain, pattern);
  // The stream's position in the current block: the block restarts, its
  // emitted counts cleared, every `total` tasks.
  std::vector<std::size_t> emitted(pattern.counts.size(), 0);
  std::size_t position = 0;
  return asap_replay_into(
      chain, workload,
      [&](TreeAsapState&, std::size_t, Time, Time) {
        if (position == total) {
          position = 0;
          std::fill(emitted.begin(), emitted.end(), 0);
        }
        return interleave_step(pattern.counts, total, ++position, emitted) + 1;
      },
      state, out, stop);
}

}  // namespace mst
