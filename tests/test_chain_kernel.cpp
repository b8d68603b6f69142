// Differential test of the chain kernel: the O(p)-per-task backward
// construction (`detail::backward_construction`) against the paper's
// quadratic Fig 3 loop (tests/support/quadratic_chain.hpp), task for task —
// destination, execution start and every emission — in both forms of the
// construction and in a spider leg's emission profile (`LegProfile`), on
// random and tie-heavy chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "support/quadratic_chain.hpp"

namespace mst {

// Readable failures: gtest prints a mismatching task as its fields.
void PrintTo(const ChainTask& task, std::ostream* os) {
  *os << "{proc " << task.proc << ", start " << task.start << ", emissions "
      << to_string(task.emissions) << "}";
}

namespace {

/// Chain families, the later ones heavy with Definition 3 ties.
enum class Family { kRandom, kAllOnes, kEqualComm, kWorkAtMostComm, kZeroLatency, kTiny };
constexpr int kFamilies = 6;

Chain draw_chain(Rng& rng, Family family, std::size_t p) {
  std::vector<Processor> procs(p);
  const Time shared_comm = rng.uniform(1, 6);
  for (Processor& proc : procs) {
    switch (family) {
      case Family::kRandom:
        proc = random_chain(
                   rng, 1,
                   {1, 20, all_platform_classes()[static_cast<std::size_t>(rng.uniform(0, 4))]})
                   .proc(0);
        break;
      case Family::kAllOnes:
        proc = {1, 1};
        break;
      case Family::kEqualComm:
        proc = {shared_comm, rng.uniform(1, 8)};
        break;
      case Family::kWorkAtMostComm:
        proc.comm = rng.uniform(1, 8);
        proc.work = rng.uniform(1, proc.comm);
        break;
      case Family::kZeroLatency:
        proc = {rng.chance(0.5) ? 0 : rng.uniform(1, 4), rng.uniform(1, 4)};
        break;
      case Family::kTiny:
        proc = {rng.uniform(0, 2), rng.uniform(1, 2)};
        break;
    }
  }
  return Chain(std::move(procs));
}

TEST(ChainKernel, MatchesTheQuadraticLoopTaskForTask) {
  Rng rng(0xC4A17);
  LegProfile profile;  // one warm profile across chains of every size
  std::size_t min_p = 64;
  std::size_t max_p = 1;
  std::size_t stopped_early = 0;
  constexpr int kDraws = 8000;
  for (int draw = 0; draw < kDraws; ++draw) {
    const auto family = static_cast<Family>(draw % kFamilies);
    const auto p = static_cast<std::size_t>(rng.chance(0.25) ? rng.uniform(1, 64)
                                                             : rng.uniform(1, 8));
    const Chain chain = draw_chain(rng, family, p);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 24));
    const Time horizon = rng.uniform(0, chain.t_infinity(n));
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);

    for (const bool stop_on_negative : {true, false}) {
      const ChainSchedule expected =
          oracle::quadratic_backward(chain, horizon, n, stop_on_negative);
      const ChainSchedule actual =
          ChainScheduler::build_backward(chain, horizon, n, stop_on_negative);
      ASSERT_EQ(actual.tasks, expected.tasks)
          << chain.describe() << " horizon=" << horizon << " n=" << n
          << " stop_on_negative=" << stop_on_negative;
      if (!stop_on_negative) continue;

      // A leg profile, which resumes the same steps from the largest time,
      // holds the same first emissions and destinations, latest task first.
      profile.reset(chain);
      const std::size_t count = profile.ranks(horizon, n);
      ASSERT_EQ(count, expected.tasks.size()) << chain.describe() << " horizon=" << horizon;
      for (std::size_t i = 0; i < count; ++i) {
        const ChainTask& task = expected.tasks[count - 1 - i];
        ASSERT_EQ(profile.emission(i, horizon), task.emissions.front())
            << chain.describe() << " horizon=" << horizon << " task " << i;
        ASSERT_EQ(profile.dest(i), task.proc)
            << chain.describe() << " horizon=" << horizon << " task " << i;
      }
      if (count < n) ++stopped_early;
    }
  }
  EXPECT_EQ(min_p, 1u);
  EXPECT_EQ(max_p, 64u);
  EXPECT_GT(stopped_early, static_cast<std::size_t>(kDraws / 4));  // the decision cut is exercised
}

TEST(ChainKernel, MakespanFormMatchesAtTInfinity) {
  // The makespan form's own horizon, on the tie-heavy families.
  Rng rng(0xC4A18);
  for (int draw = 0; draw < 600; ++draw) {
    const auto family = static_cast<Family>(draw % kFamilies);
    const Chain chain = draw_chain(rng, family, static_cast<std::size_t>(rng.uniform(1, 16)));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 40));
    const Time horizon = chain.t_infinity(n);
    EXPECT_EQ(ChainScheduler::build_backward(chain, horizon, n, false).tasks,
              oracle::quadratic_backward(chain, horizon, n, false).tasks)
        << chain.describe() << " n=" << n;
  }
}

TEST(ChainKernel, RejectsTimesBeyondTheLargestTime) {
  constexpr Time kHuge = 4'000'000'000'000'000'000;
  // T∞ of 3 tasks on the first processor overflows.
  const Chain far = Chain::from_vectors({kHuge, 1}, {1, 1});
  EXPECT_THROW((void)far.t_infinity(3), std::invalid_argument);
  EXPECT_THROW((void)ChainScheduler::schedule(far, 3), std::invalid_argument);
  EXPECT_EQ(ChainScheduler::makespan(far, 2), 2 * kHuge + 1);
  // The prefix latencies overflow, whatever the horizon.
  const Chain long_links = Chain::from_vectors({kHuge, kHuge, kHuge}, {1, 1, 1});
  ChainCountScratch scratch;
  EXPECT_THROW((void)ChainScheduler::count_within(long_links, 5, 3, scratch),
               std::invalid_argument);
  // The release-dated search top: the last release plus T∞.
  const Chain unit = Chain::from_vectors({1}, {1});
  const Time last_release = std::numeric_limits<Time>::max() - 1;
  EXPECT_THROW((void)ChainScheduler::schedule(unit, Workload::released({0, last_release})),
               std::invalid_argument);
}

TEST(ChainKernel, DecisionFormNeedsNoLatencyPlusWorkBound) {
  // c + w = 1e19 overflows `Time`, but the decision form stops before the
  // first negative emission: no task fits, and none is rejected.
  constexpr Time kHalf = 5'000'000'000'000'000'000;
  constexpr Time kDeadline = 9'000'000'000'000'000'000;
  const Chain far = Chain::from_vectors({kHalf}, {kHalf});
  ChainCountScratch scratch;
  EXPECT_EQ(ChainScheduler::count_within(far, kDeadline, 8, scratch), 0u);
  EXPECT_TRUE(ChainScheduler::schedule_within(far, kDeadline, 8).tasks.empty());
  // In front of a near processor, the far one no longer rejects the chain.
  const Chain with_near = Chain::from_vectors({1, kHalf}, {1, kHalf});
  EXPECT_EQ(ChainScheduler::count_within(with_near, kDeadline, 8, scratch), 8u);
  // The fixed-count form keeps the bound: its state falls past 0.
  EXPECT_THROW((void)ChainScheduler::build_backward(far, kDeadline, 1, false),
               std::invalid_argument);
}

}  // namespace
}  // namespace mst
