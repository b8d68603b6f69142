// Tests of Moore–Hodgson, the one-machine deadline selector that is the
// test oracle of the spider/fork greedy (tests/support/moore_hodgson_oracle.hpp),
// including optimality against subset enumeration; and of the library's
// positional-release selection DP, against its dense form
// (tests/support/dense_release_dp.hpp) and against subset enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "support/dense_release_dp.hpp"
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

/// A random positional-release instance: EDD-ordered jobs, ascending
/// releases and a cap.  The shapes lean on what the DP's frozen prefix
/// reads: tie-heavy deadlines, zero and all-equal processing times,
/// all-zero and clustered releases, caps below and above the releases.
struct ReleasedInstance {
  std::vector<EddJob> edd;
  std::vector<Time> releases;
  std::size_t cap = 0;
};

ReleasedInstance random_released(Rng& rng, std::size_t max_jobs) {
  ReleasedInstance in;
  const auto n = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(max_jobs)));
  const std::int64_t proc_shape = rng.uniform(0, 3);
  const Time equal_proc = rng.uniform(0, 5);
  const bool tied_deadlines = rng.uniform(0, 1) == 0;
  const Time span = rng.uniform(1, 6 * static_cast<std::int64_t>(n) + 8);
  for (std::size_t i = 0; i < n; ++i) {
    Time proc = 0;
    if (proc_shape == 1) proc = equal_proc;
    if (proc_shape == 2) proc = rng.uniform(0, 3);
    if (proc_shape == 3) proc = rng.uniform(1, 9);
    const Time deadline =
        tied_deadlines ? rng.uniform(0, 4) * (span / 4 + 1) : rng.uniform(0, span);
    in.edd.push_back(EddJob{deadline, proc, i});
  }
  std::sort(in.edd.begin(), in.edd.end());

  const auto count = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(n) + 4));
  const std::int64_t release_shape = rng.uniform(0, 2);
  std::vector<Time> clusters;
  for (int c = 0; c < 3; ++c) clusters.push_back(rng.uniform(0, span));
  for (std::size_t j = 0; j < count; ++j) {
    Time release = 0;
    if (release_shape == 1) release = clusters[static_cast<std::size_t>(rng.uniform(0, 2))];
    if (release_shape == 2) release = rng.uniform(0, span);
    in.releases.push_back(release);
  }
  std::sort(in.releases.begin(), in.releases.end());

  switch (rng.uniform(0, 3)) {
    case 0: in.cap = count / 2; break;
    case 1: in.cap = count; break;
    case 2: in.cap = count + static_cast<std::size_t>(rng.uniform(1, 5)); break;
    default: in.cap = static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(count)));
  }
  return in;
}

/// Horizon shifts to probe `in` at: none, one that drops a random job (its
/// shifted deadline one below its processing time) and random ones.
std::vector<Time> probe_shifts(Rng& rng, const ReleasedInstance& in) {
  std::vector<Time> shifts = {0};
  if (!in.edd.empty()) {
    const EddJob& job = in.edd[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(in.edd.size()) - 1))];
    shifts.push_back(std::max<Time>(0, job.deadline - job.proc_time + 1));
    const Time top = in.edd.back().deadline;
    for (int s = 0; s < 3; ++s) shifts.push_back(rng.uniform(0, std::max<Time>(top, 0)));
  }
  return shifts;
}

/// Largest subset of the jobs present at `shift`, run in EDD order with
/// position k starting no earlier than `releases[k]`, that meets every
/// shifted deadline, at most `cap` jobs: exhaustive over subsets.
std::size_t exhaustive_released(const ReleasedInstance& in, Time shift) {
  const std::size_t limit = std::min(in.cap, in.releases.size());
  std::size_t best = 0;
  for (unsigned mask = 0; mask < (1u << in.edd.size()); ++mask) {
    std::size_t k = 0;
    Time end = 0;
    bool ok = true;
    for (std::size_t i = 0; i < in.edd.size() && ok; ++i) {
      if ((mask & (1u << i)) == 0) continue;
      const EddJob& job = in.edd[i];
      const Time deadline = job.deadline - shift;
      if (deadline < job.proc_time || k >= limit) {
        ok = false;
        break;
      }
      end = std::max(end, in.releases[k]) + job.proc_time;
      ok = end <= deadline;
      ++k;
    }
    if (ok) best = std::max(best, k);
  }
  return best;
}

/// True iff `picked` run in order, position k from `releases[k]`, meets
/// every deadline lowered by `shift`.
bool released_feasible(const std::vector<EddJob>& picked, const std::vector<Time>& releases,
                       Time shift) {
  Time end = 0;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    end = std::max(end, releases[k]) + picked[k].proc_time;
    if (end > picked[k].deadline - shift) return false;
  }
  return true;
}

class ReleasedSelection : public ::testing::TestWithParam<std::uint64_t> {};

// The frozen-prefix DP against the dense loop it replaced: the same count
// and the same picked jobs, job by job, at every shift; never more work.
TEST_P(ReleasedSelection, MatchesTheDenseDp) {
  Rng rng(GetParam());
  std::vector<Time> dp;
  std::vector<std::uint64_t> taken;
  std::vector<EddJob> picked;
  for (int trial = 0; trial < 400; ++trial) {
    const ReleasedInstance in = random_released(rng, trial % 4 == 0 ? 160 : 24);
    for (const Time shift : probe_shifts(rng, in)) {
      std::size_t dense_cells = 0;
      const std::vector<EddJob> want = oracle::dense_released(in.edd, shift, in.releases, in.cap,
                                                              dense_cells);
      std::size_t cells = 0;
      moore_hodgson_released(in.edd, shift, in.releases, in.cap, dp, taken, picked, cells);
      ASSERT_EQ(picked, want) << "trial " << trial << " shift " << shift;
      EXPECT_LE(cells, dense_cells) << "trial " << trial;

      std::size_t dense_count_cells = 0;
      const std::size_t count =
          oracle::dense_released_count(in.edd, shift, in.releases, in.cap, dense_count_cells);
      std::size_t count_cells = 0;
      EXPECT_EQ(moore_hodgson_released_count(in.edd, shift, in.releases, in.cap, dp, count_cells),
                count)
          << "trial " << trial << " shift " << shift;
      EXPECT_EQ(count, want.size());
      EXPECT_LE(count_cells, dense_count_cells) << "trial " << trial;
    }
  }
}

// Both entry points against subset enumeration, and the picked jobs are a
// feasible sequence of that size.
TEST_P(ReleasedSelection, MatchesExhaustiveSubsets) {
  Rng rng(GetParam() ^ 0x5EED);
  std::vector<Time> dp;
  std::vector<std::uint64_t> taken;
  std::vector<EddJob> picked;
  for (int trial = 0; trial < 300; ++trial) {
    const ReleasedInstance in = random_released(rng, 10);
    for (const Time shift : probe_shifts(rng, in)) {
      const std::size_t want = exhaustive_released(in, shift);
      std::size_t cells = 0;
      EXPECT_EQ(moore_hodgson_released_count(in.edd, shift, in.releases, in.cap, dp, cells), want)
          << "trial " << trial << " shift " << shift;
      moore_hodgson_released(in.edd, shift, in.releases, in.cap, dp, taken, picked, cells);
      ASSERT_EQ(picked.size(), want) << "trial " << trial << " shift " << shift;
      EXPECT_TRUE(released_feasible(picked, in.releases, shift)) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReleasedSelection, ::testing::Values(11u, 29u, 47u, 83u));

}  // namespace
}  // namespace mst
