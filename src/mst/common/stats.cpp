#include "mst/common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "mst/common/assert.hpp"

namespace mst {

double Sample::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Sample::min() const {
  MST_REQUIRE(!values_.empty(), "min of empty sample");
  return *std::min_element(values_.begin(), values_.end());
}

double Sample::max() const {
  MST_REQUIRE(!values_.empty(), "max of empty sample");
  return *std::max_element(values_.begin(), values_.end());
}

double Sample::quantile(double q) const {
  MST_REQUIRE(!values_.empty(), "quantile of empty sample");
  MST_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double fit_loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  MST_REQUIRE(x.size() == y.size(), "fit_loglog_slope: size mismatch");
  MST_REQUIRE(x.size() >= 2, "fit_loglog_slope: need at least two points");
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    MST_REQUIRE(x[i] > 0 && y[i] > 0, "fit_loglog_slope: values must be positive");
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  MST_REQUIRE(std::abs(denom) > 1e-12, "fit_loglog_slope: degenerate x values");
  return (n * sxy - sx * sy) / denom;
}

}  // namespace mst
