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

/// Exact per-processor LP rates into `rates`, by the forward greedy;
/// `residual[k]` holds the capacity link `k` has left (1/c_k minus the
/// allocations; a zero-latency link has no limit).
void chain_lp_rates(const Chain& chain, std::vector<Rational>& rates,
                    std::vector<Rational>& residual) {
  const std::size_t p = chain.size();
  residual.assign(p, Rational(0));
  for (std::size_t k = 0; k < p; ++k) {
    if (chain.comm(k) != 0) residual[k] = Rational(1, chain.comm(k));
  }

  rates.assign(p, Rational(0));
  for (std::size_t q = 0; q < p; ++q) {
    // Processor q is capped by its speed and by every link on its path.
    Rational x(1, chain.work(q));
    for (std::size_t k = 0; k <= q; ++k) {
      if (chain.comm(k) != 0) x = Rational::min(x, residual[k]);
    }
    if (x.is_zero()) continue;
    rates[q] = x;
    for (std::size_t k = 0; k <= q; ++k) {
      if (chain.comm(k) != 0) residual[k] = residual[k] - x;
    }
  }
}

/// Rates, hyperperiod and per-period counts of the pattern — everything but
/// the block.  Returns the block length (total tasks per period).
std::size_t pattern_counts(const Chain& chain, PeriodicPattern& pattern,
                           std::vector<Rational>& residual) {
  chain_lp_rates(chain, pattern.rates, residual);

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

  pattern.counts.assign(pattern.rates.size(), 0);
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
  std::vector<Rational> residual;
  const std::size_t total = pattern_counts(chain, pattern, residual);
  std::vector<std::size_t> emitted(pattern.counts.size(), 0);
  pattern.block.reserve(total);
  for (std::size_t i = 1; i <= total; ++i) {
    pattern.block.push_back(interleave_step(pattern.counts, total, i, emitted));
  }
  return pattern;
}

Time chain_periodic(const Chain& chain, const Workload& workload, PeriodicScratch& scratch,
                    TreeAsapState& state, ChainSchedule& out, const ReplayStop& stop) {
  const std::size_t total = pattern_counts(chain, scratch.pattern, scratch.residual);
  scratch.emitted.resize(scratch.pattern.counts.size());
  // Task `i` sits at position `i mod total` of its block; the block
  // restarts, its emitted counts cleared, every `total` tasks.  Two
  // captures keep the chooser inside `std::function`'s inline buffer.
  return asap_replay_into(
      chain, workload,
      [&scratch, total](TreeAsapState&, std::size_t i, Time, Time) {
        const std::size_t position = i % total;
        if (position == 0) std::fill(scratch.emitted.begin(), scratch.emitted.end(), 0);
        return interleave_step(scratch.pattern.counts, total, position + 1, scratch.emitted) + 1;
      },
      state, out, stop);
}

}  // namespace mst
