#pragma once

#include <cstdint>
#include <string>

/// \file rational.hpp
/// Exact rational arithmetic for the steady-state LP.
///
/// The bandwidth-centric rates of bounds.hpp are computed in doubles, which
/// is fine for bounds but not for *constructing* periodic schedules: a
/// periodic pattern needs the exact per-processor rates `x_q = a/b` so the
/// hyperperiod and per-period task counts are integers.  Platform values
/// are small integers, so numerators/denominators stay tiny; all operations
/// normalize eagerly and check for overflow.

namespace mst {

/// A normalized rational number (gcd(num, den) == 1, den > 0).
class Rational {
 public:
  constexpr Rational() = default;
  Rational(std::int64_t num, std::int64_t den);  ///< throws on den == 0
  /// Implicit from integers, matching arithmetic promotion.
  Rational(std::int64_t v) : num_(v), den_(1) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::int64_t num() const { return num_; }
  [[nodiscard]] std::int64_t den() const { return den_; }

  [[nodiscard]] double to_double() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }
  [[nodiscard]] std::string to_string() const;

  friend Rational operator-(const Rational& a, const Rational& b);
  friend Rational operator*(const Rational& a, const Rational& b);

  friend bool operator==(const Rational& a, const Rational& b) = default;
  friend bool operator<(const Rational& a, const Rational& b);

  [[nodiscard]] bool is_zero() const { return num_ == 0; }

  static Rational min(const Rational& a, const Rational& b) { return a < b ? a : b; }

 private:
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

/// lcm on int64; throws on a zero argument or on overflow.
std::int64_t lcm64(std::int64_t a, std::int64_t b);

}  // namespace mst
