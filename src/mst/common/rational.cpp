#include "mst/common/rational.hpp"

#include <numeric>
#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  MST_REQUIRE(!__builtin_mul_overflow(a, b, &out), "rational arithmetic overflow");
  return out;
}

std::int64_t checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  MST_REQUIRE(!__builtin_sub_overflow(a, b, &out), "rational arithmetic overflow");
  return out;
}

}  // namespace

std::int64_t lcm64(std::int64_t a, std::int64_t b) {
  MST_REQUIRE(a != 0 && b != 0, "lcm of zero");
  const std::int64_t g = std::gcd(a, b);
  return checked_mul(a / g, b);
}

Rational::Rational(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  MST_REQUIRE(den_ != 0, "rational with zero denominator");
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  const std::int64_t g = std::gcd(num_ < 0 ? -num_ : num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
}

std::string Rational::to_string() const {
  std::ostringstream os;
  os << num_;
  if (den_ != 1) os << '/' << den_;
  return os.str();
}

Rational operator-(const Rational& a, const Rational& b) {
  // Cross-reduce before multiplying to keep intermediates small.
  const std::int64_t g = std::gcd(a.den_, b.den_);
  const std::int64_t scale_a = b.den_ / g;
  const std::int64_t scale_b = a.den_ / g;
  return Rational(checked_sub(checked_mul(a.num_, scale_a), checked_mul(b.num_, scale_b)),
                  checked_mul(a.den_, scale_a));
}

Rational operator*(const Rational& a, const Rational& b) {
  const std::int64_t g1 = std::gcd(a.num_ < 0 ? -a.num_ : a.num_, b.den_);
  const std::int64_t g2 = std::gcd(b.num_ < 0 ? -b.num_ : b.num_, a.den_);
  return Rational(checked_mul(a.num_ / g1, b.num_ / g2),
                  checked_mul(a.den_ / g2, b.den_ / g1));
}

bool operator<(const Rational& a, const Rational& b) {
  // Compare via cross multiplication with overflow-checked products.
  return checked_mul(a.num_, b.den_) < checked_mul(b.num_, a.den_);
}

}  // namespace mst
