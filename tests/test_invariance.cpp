// Structural invariance properties of the optimal schedulers: behaviors
// that must hold for *any* correct implementation of the paper's model,
// independent of the construction details.

#include <gtest/gtest.h>

#include <algorithm>

#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace mst {
namespace {

Chain scale_chain(const Chain& chain, Time factor) {
  std::vector<Processor> procs;
  for (const Processor& p : chain.procs()) {
    procs.push_back({p.comm * factor, p.work * factor});
  }
  return Chain(std::move(procs));
}

TEST(Invariance, TimeScalingScalesTheMakespan) {
  // The model has no absolute time unit: multiplying every c and w by k
  // multiplies the optimal makespan by exactly k.
  Rng rng(71);
  GeneratorParams params{1, 7, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 9));
    const Time base = ChainScheduler::makespan(chain, n);
    for (Time k : {2, 3, 7}) {
      EXPECT_EQ(ChainScheduler::makespan(scale_chain(chain, k), n), base * k)
          << chain.describe() << " n=" << n << " k=" << k;
    }
  }
}

TEST(Invariance, LegPermutationDoesNotChangeTheSpiderOptimum) {
  // Legs are interchangeable: the master's one-port does not care about
  // their order.
  Rng rng(72);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    std::vector<Chain> legs;
    const auto count = static_cast<std::size_t>(rng.uniform(2, 4));
    for (std::size_t l = 0; l < count; ++l) {
      legs.push_back(random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 3)), params));
    }
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time base = SpiderScheduler::makespan(Spider(legs), n);
    std::vector<Chain> reversed(legs.rbegin(), legs.rend());
    EXPECT_EQ(SpiderScheduler::makespan(Spider(reversed), n), base) << "n=" << n;
    std::rotate(legs.begin(), legs.begin() + 1, legs.end());
    EXPECT_EQ(SpiderScheduler::makespan(Spider(legs), n), base) << "n=" << n;
  }
}

TEST(Invariance, DuplicatingALegNeverHurts) {
  Rng rng(73);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    const Chain leg = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 3)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time single = SpiderScheduler::makespan(Spider{leg}, n);
    const Time doubled = SpiderScheduler::makespan(Spider{leg, leg}, n);
    EXPECT_LE(doubled, single) << leg.describe() << " n=" << n;
  }
}

TEST(Invariance, AddingALegNeverHurts) {
  Rng rng(74);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 8; ++trial) {
    Rng inst = rng.split();
    std::vector<Chain> legs{random_chain(inst, 2, params)};
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time before = SpiderScheduler::makespan(Spider(legs), n);
    legs.push_back(random_chain(inst, 1, params));
    EXPECT_LE(SpiderScheduler::makespan(Spider(legs), n), before) << "n=" << n;
  }
}

TEST(Invariance, SpeedingUpAProcessorNeverHurts) {
  Rng rng(75);
  GeneratorParams params{2, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time before = ChainScheduler::makespan(chain, n);
    for (std::size_t q = 0; q < chain.size(); ++q) {
      std::vector<Processor> procs = chain.procs();
      procs[q].work = std::max<Time>(1, procs[q].work - 1);
      EXPECT_LE(ChainScheduler::makespan(Chain(procs), n), before)
          << chain.describe() << " faster proc " << q;
    }
  }
}

TEST(Invariance, SpeedingUpALinkNeverHurts) {
  Rng rng(76);
  GeneratorParams params{2, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time before = ChainScheduler::makespan(chain, n);
    for (std::size_t k = 0; k < chain.size(); ++k) {
      std::vector<Processor> procs = chain.procs();
      procs[k].comm = std::max<Time>(0, procs[k].comm - 1);
      EXPECT_LE(ChainScheduler::makespan(Chain(procs), n), before)
          << chain.describe() << " faster link " << k;
    }
  }
}

TEST(Invariance, ExtendingTheChainNeverHurts) {
  // Appending a processor at the far end can only add options.
  Rng rng(77);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    const Time before = ChainScheduler::makespan(chain, n);
    std::vector<Processor> procs = chain.procs();
    procs.push_back(random_chain(inst, 1, params).proc(0));
    EXPECT_LE(ChainScheduler::makespan(Chain(procs), n), before) << chain.describe();
  }
}

TEST(Invariance, OptimumIsInvariantToTaskCountSplitBounds) {
  // makespan(n) <= makespan(a) + makespan(b) when a + b = n (concatenating
  // two schedules back to back is feasible).
  Rng rng(78);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 4)), params);
    const auto n = static_cast<std::size_t>(rng.uniform(2, 10));
    const auto a = static_cast<std::size_t>(rng.uniform(1, static_cast<Time>(n) - 1));
    const Time whole = ChainScheduler::makespan(chain, n);
    const Time split =
        ChainScheduler::makespan(chain, a) + ChainScheduler::makespan(chain, n - a);
    EXPECT_LE(whole, split) << chain.describe() << " n=" << n << " a=" << a;
  }
}

}  // namespace
}  // namespace mst
