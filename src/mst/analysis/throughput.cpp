#include "mst/analysis/throughput.hpp"

#include <algorithm>

#include "mst/baselines/bounds.hpp"
#include "mst/common/assert.hpp"
#include "mst/core/chain_scheduler.hpp"

namespace mst {

namespace {

void validate_counts(const std::vector<std::size_t>& ns) {
  MST_REQUIRE(!ns.empty(), "need at least one sample count");
  MST_REQUIRE(ns.front() >= 1, "task counts must be >= 1");
  for (std::size_t i = 1; i < ns.size(); ++i) {
    MST_REQUIRE(ns[i] > ns[i - 1], "task counts must be strictly increasing");
  }
}

/// Shared post-processing once makespans are sampled.
void finish(ThroughputCurve& curve) {
  curve.marginal.assign(curve.n.size(), 0);
  for (std::size_t i = 1; i < curve.n.size(); ++i) {
    curve.marginal[i] = curve.makespan[i] - curve.makespan[i - 1];
  }
  // Fit the affine tail over the last half of the samples: rate is the
  // inverse mean marginal cost per task, startup the residual intercept.
  const std::size_t half = curve.n.size() / 2;
  if (curve.n.size() >= 2 && curve.n.back() > curve.n[half]) {
    const double dt = static_cast<double>(curve.makespan.back() - curve.makespan[half]);
    const double dn = static_cast<double>(curve.n.back() - curve.n[half]);
    if (dt > 0) {
      curve.fitted_rate = dn / dt;
      curve.fitted_startup =
          curve.makespan.back() -
          static_cast<Time>(static_cast<double>(curve.n.back()) / curve.fitted_rate);
    }
  }
}

/// The LP steady-state rate of any platform.
double steady_state_rate(const Platform& platform) {
  if (const auto* chain = std::get_if<Chain>(&platform)) {
    return chain_steady_state_rate(*chain);
  }
  if (const auto* fork = std::get_if<Fork>(&platform)) {
    return spider_steady_state_rate(Spider::from_fork(*fork));
  }
  if (const auto* spider = std::get_if<Spider>(&platform)) {
    return spider_steady_state_rate(*spider);
  }
  return tree_steady_state_rate(std::get<Tree>(platform));
}

}  // namespace

double ThroughputCurve::efficiency_at_tail() const {
  if (n.empty() || makespan.back() <= 0 || steady_rate <= 0.0) return 0.0;
  const double tp = static_cast<double>(n.back()) / static_cast<double>(makespan.back());
  return tp / steady_rate;
}

ThroughputCurve throughput_curve(const Platform& platform,
                                 const std::vector<std::size_t>& ns,
                                 const std::function<Time(std::size_t)>& makespan_of) {
  validate_counts(ns);
  ThroughputCurve curve;
  curve.n = ns;
  curve.makespan.reserve(ns.size());
  for (std::size_t n : ns) curve.makespan.push_back(makespan_of(n));
  curve.steady_rate = steady_state_rate(platform);
  finish(curve);
  return curve;
}

std::size_t tasks_to_reach_rate_fraction(const Chain& chain, double fraction,
                                         std::size_t n_cap) {
  MST_REQUIRE(fraction > 0.0 && fraction < 1.0, "fraction must be in (0,1)");
  const double rate = chain_steady_state_rate(chain);
  MST_REQUIRE(rate > 0.0, "platform has zero steady-state rate");
  // Doubling search for an upper bound, then binary search: throughput of
  // the optimal schedule is monotone non-decreasing in n (adding a task
  // reuses the previous pipeline).  One emission profile answers every
  // probe, each rank built once.
  LegProfile profile;
  profile.reset(chain);
  auto achieves = [&](std::size_t n) {
    const double tp = static_cast<double>(n) / static_cast<double>(profile.makespan(n));
    return tp >= fraction * rate;
  };
  std::size_t hi = 1;
  while (hi < n_cap && !achieves(hi)) hi *= 2;
  if (!achieves(hi)) return n_cap;  // never reached within the cap
  std::size_t lo = hi / 2 + 1;
  if (hi == 1) return 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (achieves(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace mst
