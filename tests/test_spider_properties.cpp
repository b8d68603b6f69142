// Property tests of the spider algorithm over seeded random instances:
// feasibility, optimality against exhaustive search (Theorem 3), duality
// and replay agreement.

#include <gtest/gtest.h>

#include <tuple>

#include "mst/baselines/brute_force.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/sim/static_replay.hpp"

namespace mst {
namespace {

using Param = std::tuple<int /*class*/, std::uint64_t /*seed*/>;

class SpiderProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] GeneratorParams params() const {
    GeneratorParams p;
    p.lo = 1;
    p.hi = 8;
    p.cls = all_platform_classes()[static_cast<std::size_t>(std::get<0>(GetParam()))];
    return p;
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(SpiderProperty, SchedulesAreAlwaysFeasible) {
  Rng rng(seed());
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    const Spider spider = random_spider(inst, legs, 3, params());
    const SpiderSchedule s = SpiderScheduler::schedule(spider, n);
    ASSERT_EQ(s.num_tasks(), n);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << spider.describe() << " n=" << n << "\n" << report.summary();
  }
}

TEST_P(SpiderProperty, MatchesBruteForceOptimum) {
  Rng rng(seed());
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 3));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 6));
    const Spider spider = random_spider(inst, legs, 2, params());
    const Time alg = SpiderScheduler::makespan(spider, n);
    const Time opt = brute_force_makespan(spider, n);
    ASSERT_EQ(alg, opt) << spider.describe() << " n=" << n;
  }
}

TEST_P(SpiderProperty, MakespanMonotoneInTaskCount) {
  Rng rng(seed());
  Rng inst = rng.split();
  const Spider spider =
      random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params());
  Time prev = 0;
  for (std::size_t n = 1; n <= 10; ++n) {
    const Time m = SpiderScheduler::makespan(spider, n);
    EXPECT_GE(m, prev) << spider.describe() << " n=" << n;
    prev = m;
  }
}

TEST_P(SpiderProperty, DecisionAndMakespanFormsAreDual) {
  Rng rng(seed());
  Rng inst = rng.split();
  const Spider spider =
      random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 3)), 2, params());
  constexpr std::size_t kMax = 8;
  std::vector<Time> makespans(kMax + 1, 0);
  for (std::size_t k = 1; k <= kMax; ++k) makespans[k] = SpiderScheduler::makespan(spider, k);
  for (Time t = 0; t <= makespans[kMax]; t += std::max<Time>(1, makespans[kMax] / 23)) {
    std::size_t expected = 0;
    while (expected < kMax && makespans[expected + 1] <= t) ++expected;
    EXPECT_EQ(SpiderScheduler::max_tasks(spider, t, kMax), expected)
        << spider.describe() << " T=" << t;
  }
}

TEST_P(SpiderProperty, ReplayAgreesWithAnalyticSchedule) {
  Rng rng(seed());
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const Spider spider = random_spider(inst, legs, 3, params());
    const SpiderSchedule s = SpiderScheduler::schedule(spider, n);
    const sim::ReplayResult replayed = sim::replay(s);
    ASSERT_TRUE(replayed.ok) << spider.describe() << " n=" << n;
    EXPECT_EQ(replayed.makespan, s.makespan());
  }
}

TEST_P(SpiderProperty, DecisionFormMatchesBruteForceCount) {
  Rng rng(seed() + 900);
  for (int trial = 0; trial < 4; ++trial) {
    Rng inst = rng.split();
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 2));
    const Spider spider = random_spider(inst, legs, 2, params());
    const Time t_lim = rng.uniform(0, 20);
    const std::size_t alg = SpiderScheduler::max_tasks(spider, t_lim, 6);
    EXPECT_EQ(alg, brute_force_max_tasks(spider, t_lim, 6))
        << spider.describe() << " T=" << t_lim;
  }
}

TEST_P(SpiderProperty, DecisionFormNeverExceedsWindowOrCap) {
  Rng rng(seed());
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params());
    const Time t_lim = rng.uniform(0, 40);
    const auto cap = static_cast<std::size_t>(rng.uniform(0, 10));
    const SpiderSchedule s = SpiderScheduler::schedule_within(spider, t_lim, cap);
    EXPECT_LE(s.num_tasks(), cap);
    for (const SpiderTask& task : s.tasks) EXPECT_LE(task.end(spider), t_lim);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << spider.describe() << "\n" << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndSeeds, SpiderProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(5u, 55u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name =
          to_string(all_platform_classes()[static_cast<std::size_t>(std::get<0>(info.param))]) +
          "_seed" + std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mst
