// Tests of Moore–Hodgson, the one-machine deadline selector that is the
// test oracle of the spider/fork greedy (tests/support/moore_hodgson_oracle.hpp),
// including optimality against subset enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mst/common/rng.hpp"
#include "support/moore_hodgson_oracle.hpp"

namespace mst {
namespace {

using oracle::DeadlineJob;
using oracle::moore_hodgson;

/// True iff `jobs` all meet their deadlines run back-to-back in EDD order.
bool edd_feasible(std::vector<DeadlineJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), [](const DeadlineJob& a, const DeadlineJob& b) {
    return a.deadline < b.deadline;
  });
  Time total = 0;
  for (const DeadlineJob& job : jobs) {
    total += job.proc_time;
    if (total > job.deadline) return false;
  }
  return true;
}

TEST(MooreHodgson, SelectsEverythingWhenLoose) {
  std::vector<DeadlineJob> jobs = {{2, 100, 0}, {3, 100, 1}, {4, 100, 2}};
  const auto picked = moore_hodgson(jobs);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(MooreHodgson, EvictsLongestOnOverflow) {
  // Classic example: deadlines force dropping the long job.
  std::vector<DeadlineJob> jobs = {{1, 2, 0}, {5, 6, 1}, {1, 7, 2}, {1, 8, 3}};
  const auto picked = moore_hodgson(jobs);
  // All four need 8 by deadline 8 but job 1 (len 5) forces overflow at its
  // own deadline? total after {1,5} = 6 <= 6 OK; +1 -> 7 <= 7 OK; +1 -> 8 <=
  // 8 OK: everything fits.
  EXPECT_EQ(picked.size(), 4u);
}

TEST(MooreHodgson, DropsExactlyTheLongJob) {
  std::vector<DeadlineJob> jobs = {{4, 4, 0}, {2, 5, 1}, {2, 7, 2}};
  // EDD: 0 (t=4<=4), +1: t=6 > 5 -> evict longest (job 0, len 4), t=2.
  // +2: t=4 <= 7.  Selected {1,2}.
  const auto picked = moore_hodgson(jobs);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 1u);
  EXPECT_EQ(picked[1], 2u);
}

TEST(MooreHodgson, ImpossibleJobNeverSelected) {
  std::vector<DeadlineJob> jobs = {{5, 3, 0}, {1, 10, 1}};
  const auto picked = moore_hodgson(jobs);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0], 1u);
}

TEST(MooreHodgson, EmptyAndSingleton) {
  EXPECT_TRUE(moore_hodgson({}).empty());
  const auto one = moore_hodgson({{3, 3, 7}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
  EXPECT_TRUE(moore_hodgson({{3, 2, 7}}).empty());
}

TEST(MooreHodgson, ZeroLengthJobsAlwaysFit) {
  std::vector<DeadlineJob> jobs = {{0, 0, 0}, {0, 0, 1}, {5, 5, 2}};
  EXPECT_EQ(moore_hodgson(jobs).size(), 3u);
}

TEST(EddFeasible, MatchesManualCheck) {
  EXPECT_TRUE(edd_feasible({{2, 2, 0}, {2, 4, 1}}));
  EXPECT_FALSE(edd_feasible({{2, 2, 0}, {2, 3, 1}}));
  EXPECT_TRUE(edd_feasible({}));
}

/// Exhaustive optimality check: Moore–Hodgson must match the best subset
/// over all 2^N subsets on random instances.
class MooreHodgsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MooreHodgsonProperty, MatchesExhaustiveOptimum) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.uniform(1, 10));
    std::vector<DeadlineJob> jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back({rng.uniform(0, 8), rng.uniform(0, 20), static_cast<std::size_t>(i)});
    }
    std::size_t best = 0;
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
      std::vector<DeadlineJob> subset;
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) subset.push_back(jobs[static_cast<std::size_t>(i)]);
      }
      if (edd_feasible(subset)) best = std::max(best, subset.size());
    }
    const auto picked = moore_hodgson(jobs);
    EXPECT_EQ(picked.size(), best) << "trial " << trial;
    // The returned selection itself must be feasible.
    std::vector<DeadlineJob> chosen;
    for (std::size_t id : picked) chosen.push_back(jobs[id]);
    EXPECT_TRUE(edd_feasible(chosen));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MooreHodgsonProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

}  // namespace
}  // namespace mst
