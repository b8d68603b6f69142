// Tests of the exact rational arithmetic backing the steady-state LP.

#include <gtest/gtest.h>

#include "mst/common/rational.hpp"

namespace mst {
namespace {

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
  const Rational neg(3, -6);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 2);
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, ImplicitIntegerConversion) {
  const Rational r = 5;
  EXPECT_EQ(r.num(), 5);
  EXPECT_EQ(r.den(), 1);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(1, 3) - Rational(1, 2), Rational(-1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_FALSE(Rational(2, 4) < Rational(1, 2));
  EXPECT_EQ(Rational::min(Rational(1, 3), Rational(1, 2)), Rational(1, 3));
}

TEST(Rational, ToStringAndDouble) {
  EXPECT_EQ(Rational(3, 4).to_string(), "3/4");
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
  EXPECT_TRUE(Rational(0).is_zero());
  EXPECT_FALSE(Rational(1, 9).is_zero());
}

TEST(Rational, LcmHelper) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(7, 7), 7);
  EXPECT_THROW(lcm64(0, 3), std::invalid_argument);
}

TEST(Rational, OverflowIsDetectedNotWrapped) {
  const std::int64_t big = (std::int64_t{1} << 62);
  EXPECT_THROW(Rational(big, 3) * Rational(big, 5), std::invalid_argument);
}

TEST(Rational, CrossReductionKeepsIntermediatesSmall) {
  // Would overflow with naive a.num*b.num if not cross-reduced.
  const std::int64_t big = (std::int64_t{1} << 40);
  const Rational a(big, 3);
  const Rational b(9, big);
  EXPECT_EQ(a * b, Rational(3));
}

TEST(Rational, DifferenceOfSeriesIsExact) {
  // 7381/2520 - 1/1 - 1/2 - ... - 1/10 == 0.
  Rational rest(7381, 2520);
  for (std::int64_t k = 1; k <= 10; ++k) rest = rest - Rational(1, k);
  EXPECT_TRUE(rest.is_zero());
}

}  // namespace
}  // namespace mst
