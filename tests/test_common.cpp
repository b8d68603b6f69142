// Unit tests for mst/common: deterministic RNG, statistics, tables, CLI
// parsing and the invariant macros.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>

#include "mst/common/assert.hpp"
#include "mst/common/cli.hpp"
#include "mst/common/rng.hpp"
#include "mst/common/stats.hpp"
#include "mst/common/table.hpp"
#include "mst/common/time.hpp"

namespace mst {
namespace {

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformCoversWholeRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(5, 5), 5);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(2, 1), std::invalid_argument);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(1234);
  Rng p2(1234);
  Rng c1 = p1.split();
  Rng c2 = p2.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, SplitChildDiffersFromParentContinuation) {
  Rng parent(99);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child.next_u64() == parent.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Sample, Mean) {
  Sample s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Sample, EmptySampleDefaults) {
  Sample s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_THROW((void)s.min(), std::invalid_argument);
  EXPECT_THROW((void)s.quantile(0.5), std::invalid_argument);
}

TEST(Sample, QuantilesInterpolate) {
  Sample s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Sample, MinMax) {
  Sample s;
  for (double v : {3.0, -1.0, 7.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x;
  std::vector<double> y;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // exponent 2
  }
  EXPECT_NEAR(fit_loglog_slope(x, y), 2.0, 1e-9);
}

TEST(Stats, LogLogSlopeValidation) {
  EXPECT_THROW(fit_loglog_slope({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_loglog_slope({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(fit_loglog_slope({1.0, -2.0}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fit_loglog_slope({1.0, 1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), std::invalid_argument);
}

TEST(Table, RejectsCellWithoutRow) {
  Table t({"only"});
  EXPECT_THROW(t.cell("x"), std::invalid_argument);
}

TEST(Args, ParsesValuesAndFlags) {
  const char* argv[] = {"prog", "--n=12", "--seed=7", "--verbose", "--name=abc"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("n", 0), 12);
  EXPECT_EQ(args.get_int("seed", 0), 7);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("name", ""), "abc");
  EXPECT_EQ(args.get_int("missing", 99), 99);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.5), 0.5);
}

TEST(Args, RejectsMalformedOptions) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, RejectsNonNumericValues) {
  const char* argv[] = {"prog", "--n=abc", "--big=99999999999999999999", "--x=1.5e"};
  Args args(4, argv);
  for (const char* name : {"n", "big"}) {
    try {
      (void)args.get_int(name, 0);
      FAIL() << name << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name + "="), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)args.get_double("x", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("n", 0), std::invalid_argument);
}

TEST(AssertMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(MST_REQUIRE(false, "message"), std::invalid_argument);
  EXPECT_NO_THROW(MST_REQUIRE(true, "message"));
}

TEST(AssertMacros, AssertThrowsLogicError) {
  EXPECT_THROW(MST_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(MST_ASSERT(true));
}

TEST(TimeConstants, HorizonIsFarFromOverflow) {
  EXPECT_GT(kTimeInfinity, Time{1} << 60);
  EXPECT_LT(kTimeInfinity, std::numeric_limits<Time>::max() / 2);
  EXPECT_LT(kNoTime, 0);
}

}  // namespace
}  // namespace mst
