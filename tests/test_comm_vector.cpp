// Tests of the Definition 3 communication-vector order — the tie-breaking
// heart of the backward construction.

#include <gtest/gtest.h>

#include "mst/common/rng.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "support/definition3.hpp"

namespace mst {
namespace {

using oracle::precedes;

TEST(CommVectorOrder, FirstDifferenceDecides) {
  EXPECT_TRUE(precedes({1, 5}, {2, 0}));
  EXPECT_FALSE(precedes({2, 0}, {1, 5}));
  EXPECT_TRUE(precedes({3, 4, 1}, {3, 5, 0}));
}

TEST(CommVectorOrder, FirstDifferenceBeatsLength) {
  // Difference within the common prefix dominates the length rule.
  EXPECT_TRUE(precedes({1, 9, 9}, {2}));
  EXPECT_FALSE(precedes({2}, {1, 9, 9}));
}

TEST(CommVectorOrder, EqualPrefixLongerIsSmaller) {
  // Definition 3 second clause: i > j with equal common prefix => A ≺ B.
  EXPECT_TRUE(precedes({4, 7, 1}, {4, 7}));
  EXPECT_FALSE(precedes({4, 7}, {4, 7, 1}));
  EXPECT_TRUE(precedes({5, 5}, {5}));
}

TEST(CommVectorOrder, EqualVectorsAreUnordered) {
  EXPECT_FALSE(precedes({3, 1}, {3, 1}));
}

TEST(CommVectorOrder, SingleElementVectors) {
  EXPECT_TRUE(precedes({1}, {2}));
  EXPECT_FALSE(precedes({2}, {1}));
  EXPECT_FALSE(precedes({2}, {2}));
}

TEST(CommVectorOrder, NegativeTimesCompareNumerically) {
  // The decision form produces candidate vectors with negative entries; the
  // order must stay purely numeric there.
  EXPECT_TRUE(precedes({-5, 3}, {-4, 0}));
  EXPECT_TRUE(precedes({-1}, {0}));
}

TEST(CommVectorOrder, PaperTieBreakPrefersShorterVector) {
  // The selection loop interprets "greater" as "later first emission, ties
  // toward the nearer processor" — i.e. among prefix-equal candidates the
  // shorter vector wins.
  const CommVector nearer = {10};
  const CommVector farther = {10, 12};
  EXPECT_TRUE(precedes(farther, nearer));
}

TEST(CommVectorOrder, ToStringFormatsBraces) {
  EXPECT_EQ(to_string(CommVector{1, 2, 3}), "{1, 2, 3}");
  EXPECT_EQ(to_string(CommVector{}), "{}");
}

/// Property sweep: on any set of pairwise-distinct vectors, `precedes` is a
/// strict total order (irreflexive, antisymmetric, transitive, total).
class CommVectorOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CommVectorOrderProperty, IsStrictTotalOrder) {
  Rng rng(GetParam());
  std::vector<CommVector> vecs;
  for (int i = 0; i < 24; ++i) {
    CommVector v(static_cast<std::size_t>(rng.uniform(1, 4)));
    for (Time& t : v) t = rng.uniform(-3, 3);
    vecs.push_back(std::move(v));
  }
  for (const CommVector& a : vecs) {
    EXPECT_FALSE(precedes(a, a));
    for (const CommVector& b : vecs) {
      if (a == b) continue;
      EXPECT_NE(precedes(a, b), precedes(b, a)) << to_string(a) << " vs " << to_string(b);
      for (const CommVector& c : vecs) {
        if (precedes(a, b) && precedes(b, c)) {
          EXPECT_TRUE(precedes(a, c))
              << to_string(a) << " ≺ " << to_string(b) << " ≺ " << to_string(c);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommVectorOrderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace mst
