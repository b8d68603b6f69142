// Tests of the instrumented backward construction, including the direct
// executable form of Lemma 1 ("there is always a better solution than a
// crossing") over the recorded candidate vectors.

#include <gtest/gtest.h>

#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/chain_trace.hpp"
#include "mst/platform/generator.hpp"
#include "support/definition3.hpp"

namespace mst {
namespace {

TEST(ChainTrace, ReproducesThePlainScheduleExactly) {
  Rng rng(61);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 12; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const ChainTrace trace = trace_schedule(chain, n);
    const ChainSchedule plain = ChainScheduler::schedule(chain, n);
    EXPECT_EQ(trace.schedule.tasks, plain.tasks) << chain.describe() << " n=" << n;
    EXPECT_EQ(trace.steps.size(), n);
  }
}

TEST(ChainTrace, ChosenCandidateIsTheDefinition3Maximum) {
  Rng rng(62);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const ChainTrace trace = trace_schedule(chain, 6);
    for (const ChainTraceStep& step : trace.steps) {
      const CommVector& winner = step.candidates[step.chosen];
      for (const CommVector& other : step.candidates) {
        if (other == winner) continue;
        EXPECT_TRUE(oracle::precedes(other, winner))
            << to_string(other) << " should precede " << to_string(winner);
      }
    }
  }
}

TEST(ChainTrace, Lemma1NoCrossingBetweenCandidates) {
  // Lemma 1: if kC(i) ≺ lC(i) then every suffix (from any common link q)
  // also satisfies {kC_q..} ≺ {lC_q..} — candidate vectors never cross.
  Rng rng(63);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 12; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(2, 6)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const ChainTrace trace = trace_schedule(chain, n);
    for (const ChainTraceStep& step : trace.steps) {
      for (std::size_t k = 0; k < step.candidates.size(); ++k) {
        for (std::size_t l = 0; l < step.candidates.size(); ++l) {
          if (k == l) continue;
          const CommVector& a = step.candidates[k];
          const CommVector& b = step.candidates[l];
          if (!oracle::precedes(a, b)) continue;
          const std::size_t common = std::min(a.size(), b.size());
          for (std::size_t q = 0; q < common; ++q) {
            const CommVector suffix_a(a.begin() + static_cast<std::ptrdiff_t>(q), a.end());
            const CommVector suffix_b(b.begin() + static_cast<std::ptrdiff_t>(q), b.end());
            EXPECT_TRUE(suffix_a == suffix_b || oracle::precedes(suffix_a, suffix_b))
                << chain.describe() << ": crossing at q=" << q << " between "
                << to_string(a) << " and " << to_string(b);
          }
        }
      }
    }
  }
}

TEST(ChainTrace, HullAndOccupancyAreMonotone) {
  // Backward construction: hulls and occupancies only move earlier.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_schedule(chain, 5);
  for (std::size_t s = 1; s < trace.steps.size(); ++s) {
    for (std::size_t k = 0; k < chain.size(); ++k) {
      EXPECT_LE(trace.steps[s].hull_before[k], trace.steps[s - 1].hull_before[k]);
      EXPECT_LE(trace.steps[s].occupancy_before[k], trace.steps[s - 1].occupancy_before[k]);
    }
  }
}

TEST(ChainTrace, Fig2FirstDecision) {
  // The first backward step of the Fig 2 instance: anchored at T∞ = 14
  // (for n=5: 2 + 4*3 + 3 = 17? no — T∞ uses the first processor:
  // 2 + 4·max(3,2) + 3 = 17).  The last task lands on processor 1 ending
  // at 17.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_schedule(chain, 5);
  EXPECT_EQ(trace.horizon, 17);
  const ChainTraceStep& first = trace.steps.front();
  // Candidates: to proc 1: {17-3-2} = {12}; to proc 2: {17-5-3-2, 17-5-3} = {7, 9}.
  ASSERT_EQ(first.candidates.size(), 2u);
  EXPECT_EQ(first.candidates[0], (CommVector{12}));
  EXPECT_EQ(first.candidates[1], (CommVector{7, 9}));
  EXPECT_EQ(first.chosen, 0u);
  EXPECT_EQ(first.placed.start, 14);  // 17 - w1
}

TEST(ChainTrace, DecisionFormStopsLikeTheScheduler) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainTrace trace = trace_backward(chain, 14, 100, /*stop_on_negative=*/true);
  EXPECT_EQ(trace.schedule.num_tasks(), 5u);
  EXPECT_EQ(trace.schedule.num_tasks(), ChainScheduler::max_tasks(chain, 14, 100));
}

TEST(ChainTrace, RejectsZeroTasks) {
  EXPECT_THROW(trace_schedule(Chain::from_vectors({1}, {1}), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mst
