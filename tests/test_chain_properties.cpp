// Property tests of the chain algorithm over seeded random instances:
// feasibility, optimality against exhaustive search (Theorem 1), the
// decision/makespan duality, Lemma 2's sub-chain projection, and the
// suffix-optimality that powers the spider reduction (Lemma 4).

#include <gtest/gtest.h>

#include <tuple>

#include "mst/baselines/brute_force.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

using Param = std::tuple<int /*class index*/, std::uint64_t /*seed*/>;

class ChainProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] GeneratorParams params() const {
    GeneratorParams p;
    p.lo = 1;
    p.hi = 9;
    p.cls = all_platform_classes()[static_cast<std::size_t>(std::get<0>(GetParam()))];
    return p;
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(ChainProperty, SchedulesAreAlwaysFeasible) {
  Rng rng(seed());
  for (int trial = 0; trial < 12; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 14));
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, p, params());
    const ChainSchedule s = ChainScheduler::schedule(chain, n);
    ASSERT_EQ(s.num_tasks(), n);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << chain.describe() << " n=" << n << "\n" << report.summary();
    // The paper's final shift: the first emission, the earliest event, is 0.
    EXPECT_EQ(s.tasks.front().emissions.front(), 0) << chain.describe();
  }
}

TEST_P(ChainProperty, MatchesBruteForceOptimum) {
  Rng rng(seed());
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = static_cast<std::size_t>(rng.uniform(1, 4));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 7));
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, p, params());
    const Time alg = ChainScheduler::makespan(chain, n);
    const Time opt = brute_force_makespan(chain, n);
    ASSERT_EQ(alg, opt) << chain.describe() << " n=" << n;
  }
}

TEST_P(ChainProperty, MakespanIsMonotoneInTaskCount) {
  Rng rng(seed());
  Rng inst = rng.split();
  const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 6)), params());
  Time prev = 0;
  for (std::size_t n = 1; n <= 12; ++n) {
    const Time m = ChainScheduler::makespan(chain, n);
    EXPECT_GE(m, prev) << chain.describe() << " n=" << n;
    prev = m;
  }
}

TEST_P(ChainProperty, DecisionAndMakespanFormsAreDual) {
  // max{k : makespan(k) <= T} == max_tasks(T) for every window T.
  Rng rng(seed());
  Rng inst = rng.split();
  const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params());
  constexpr std::size_t kMax = 9;
  std::vector<Time> makespans(kMax + 1, 0);
  for (std::size_t k = 1; k <= kMax; ++k) makespans[k] = ChainScheduler::makespan(chain, k);

  for (Time t = 0; t <= makespans[kMax]; t += std::max<Time>(1, makespans[kMax] / 37)) {
    std::size_t expected = 0;
    while (expected < kMax && makespans[expected + 1] <= t) ++expected;
    EXPECT_EQ(ChainScheduler::max_tasks(chain, t, kMax), expected)
        << chain.describe() << " T=" << t;
  }
  // At exactly the k-task makespan the window fits k tasks.
  for (std::size_t k = 1; k <= kMax; ++k) {
    EXPECT_GE(ChainScheduler::max_tasks(chain, makespans[k], kMax), k);
  }
}

TEST_P(ChainProperty, DecisionFormTaskCountMonotoneInWindow) {
  Rng rng(seed());
  Rng inst = rng.split();
  const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params());
  std::size_t prev = 0;
  for (Time t = 0; t <= 60; t += 3) {
    const std::size_t k = ChainScheduler::max_tasks(chain, t, 50);
    EXPECT_GE(k, prev) << chain.describe() << " T=" << t;
    prev = k;
  }
}

TEST_P(ChainProperty, DecisionFormSchedulesAreFeasibleWithinWindow) {
  Rng rng(seed());
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Chain chain =
        random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params());
    const Time t_lim = rng.uniform(0, 50);
    const ChainSchedule s = ChainScheduler::schedule_within(chain, t_lim, 30);
    const FeasibilityReport report = check_feasibility(s);
    ASSERT_TRUE(report.ok()) << chain.describe() << " T=" << t_lim << "\n" << report.summary();
    for (const ChainTask& task : s.tasks) {
      EXPECT_GE(task.emissions.front(), 0);
      EXPECT_LE(task.end(chain), t_lim);
    }
  }
}

TEST_P(ChainProperty, SuffixOfDecisionFormIsOptimalForItsCount) {
  // Backward construction: the last k tasks of schedule_within(T, m) are
  // exactly schedule_within(T, k) — the property Lemma 4 builds on.
  Rng rng(seed());
  Rng inst = rng.split();
  const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params());
  const Time t_lim = 40;
  const ChainSchedule full = ChainScheduler::schedule_within(chain, t_lim, 10);
  for (std::size_t k = 1; k <= full.num_tasks(); ++k) {
    const ChainSchedule sub = ChainScheduler::schedule_within(chain, t_lim, k);
    ASSERT_EQ(sub.num_tasks(), k);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(sub.tasks[j], full.tasks[full.num_tasks() - k + j])
          << chain.describe() << " k=" << k << " j=" << j;
    }
  }
}

TEST_P(ChainProperty, Lemma2SubChainProjection) {
  // The tasks placed beyond the first processor form, on the sub-chain
  // (c_2..c_p, w_2..w_p), the same schedule the algorithm would build there
  // (up to the time shift T_shift = min C^i_2).
  Rng rng(seed());
  for (int trial = 0; trial < 6; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(2, 5));
    const auto n = static_cast<std::size_t>(rng.uniform(2, 10));
    const Chain chain = random_chain(inst, p, params());
    const Time horizon = chain.t_infinity(n);

    // Unshifted schedules anchored at the same horizon on both chains.
    const ChainSchedule full = ChainScheduler::build_backward(chain, horizon, n, false);
    std::vector<ChainTask> projected;
    for (const ChainTask& t : full.tasks) {
      if (t.proc >= 1) {
        ChainTask shifted;
        shifted.proc = t.proc - 1;
        shifted.start = t.start;
        shifted.emissions.assign(t.emissions.begin() + 1, t.emissions.end());
        projected.push_back(std::move(shifted));
      }
    }
    const Chain tail(std::vector<Processor>(chain.procs().begin() + 1, chain.procs().end()));
    const ChainSchedule sub =
        ChainScheduler::build_backward(tail, horizon, projected.size(), false);
    ASSERT_EQ(sub.num_tasks(), projected.size()) << chain.describe() << " n=" << n;
    for (std::size_t j = 0; j < projected.size(); ++j) {
      EXPECT_EQ(sub.tasks[j], projected[j]) << chain.describe() << " n=" << n << " j=" << j;
    }
  }
}

TEST_P(ChainProperty, DecisionFormMatchesBruteForceCount) {
  Rng rng(seed() + 900);
  for (int trial = 0; trial < 5; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 3));
    const Chain chain = random_chain(inst, p, params());
    const Time t_lim = rng.uniform(0, 25);
    const std::size_t alg = ChainScheduler::max_tasks(chain, t_lim, 7);
    EXPECT_EQ(alg, brute_force_max_tasks(chain, t_lim, 7))
        << chain.describe() << " T=" << t_lim;
  }
}

TEST_P(ChainProperty, FirstEmissionNeverNegativeAtTInfinity) {
  // The feasibility claim the paper leaves to the reader: anchored at T∞,
  // the construction never pushes an emission below zero.
  Rng rng(seed());
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
    const auto n = static_cast<std::size_t>(rng.uniform(1, 12));
    const Chain chain = random_chain(inst, p, params());
    const ChainSchedule raw =
        ChainScheduler::build_backward(chain, chain.t_infinity(n), n, false);
    ASSERT_EQ(raw.num_tasks(), n);
    EXPECT_GE(raw.tasks.front().emissions.front(), 0) << chain.describe() << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ClassesAndSeeds, ChainProperty,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(11u, 22u, 33u)),
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
