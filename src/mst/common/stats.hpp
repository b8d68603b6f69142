#pragma once

#include <cstddef>
#include <vector>

/// \file stats.hpp
/// Small descriptive-statistics helpers used by the experiment harness
/// (ratio tables, scaling-exponent fits).  Kept minimal on purpose: the
/// benches report means/medians over seeded instance sweeps and fit
/// power-law exponents to confirm the chain kernel's O(n·p) complexity
/// (the paper gives O(n·p²)).

namespace mst {

/// Accumulates a sample of doubles and answers summary queries.
class Sample {
 public:
  void add(double v) { values_.push_back(v); }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  /// Arithmetic mean; 0 for an empty sample.
  [[nodiscard]] double mean() const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Linear-interpolated quantile, q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Least-squares slope of log(y) against log(x): the fitted exponent `b`
/// in `y ≈ a·x^b`.  Used by the scaling experiment to confirm that chain
/// scheduling runtime grows linearly in n and quadratically in p.
/// Requires all x, y strictly positive and at least two points.
double fit_loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace mst
