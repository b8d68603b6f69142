// Horizon re-planning reads held plans instead of re-solving.
//
// The contracts under test, in order:
//  * the `replan` policy dispatches exactly as the re-solving oracle
//    (tests/support/resolving_replan.hpp) on random chains, forks and
//    spiders — `c = 0` links and tie-heavy spiders included — under
//    Poisson, burst, periodic and all-at-0 arrivals, and it plans once per
//    arrival batch, as the oracle solves;
//  * the chain's `b`-task plan is the suffix of its `N`-task plan for every
//    `b <= N`, the property the policy's one chain profile rests on;
//  * on a chain, every dispatch at backlog `b` sends the first task of
//    `ChainScheduler::schedule(chain, b)`, and the profile holds as many
//    ranks as the largest backlog;
//  * a chain backlog is rejected only when the solver would reject it;
//  * `api::run_stream` folds the deterministic work counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mst/api/stream.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/arrival.hpp"
#include "support/resolving_replan.hpp"

namespace mst {
namespace {

/// `c` in [0, 9] (zero-latency links included), `w` in [1, 20].
Processor random_proc(Rng& rng) { return {rng.uniform(0, 9), rng.uniform(1, 20)}; }

Chain random_leg(Rng& rng, std::size_t p) {
  std::vector<Processor> procs;
  for (std::size_t i = 0; i < p; ++i) procs.push_back(random_proc(rng));
  return Chain(std::move(procs));
}

/// One random chain, fork or spider; `tied` spiders give every leg the same
/// first link, so the selection meets ties at every step.
Platform random_platform(Rng& rng, int kind, bool tied) {
  const auto size = [&](std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform(1, hi));
  };
  if (kind == 0) return random_leg(rng, size(6));
  if (kind == 1) {
    std::vector<Processor> slaves;
    const std::size_t p = size(6);
    const Time c = rng.uniform(0, 9);
    for (std::size_t i = 0; i < p; ++i) {
      slaves.push_back(random_proc(rng));
      if (tied) slaves.back().comm = c;
    }
    return Fork(std::move(slaves));
  }
  std::vector<Chain> legs;
  const std::size_t num_legs = size(4);
  const Time c = rng.uniform(0, 9);
  for (std::size_t l = 0; l < num_legs; ++l) {
    Chain leg = random_leg(rng, size(3));
    if (tied) {
      std::vector<Processor> procs = leg.procs();
      procs.front().comm = c;
      leg = Chain(std::move(procs));
    }
    legs.push_back(std::move(leg));
  }
  return Spider(std::move(legs));
}

/// The counter `name` of `policy`'s work so far (0 if it reports none).
std::int64_t work_counter(const sim::StreamPolicy& policy, std::string_view name) {
  obs::MetricsRegistry metrics;
  policy.count_work(metrics);
  for (const obs::MetricSample& sample : metrics.snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

TEST(Replan, DispatchesExactlyAsTheResolvingPolicy) {
  const ArrivalDist arrivals[] = {
      {ArrivalDist::Kind::kPoisson, 3, 0}, {ArrivalDist::Kind::kPoisson, 12, 0},
      {ArrivalDist::Kind::kBursts, 5, 17}, {ArrivalDist::Kind::kBursts, 2, 4},
      {ArrivalDist::Kind::kPeriodic, 2, 0}, {ArrivalDist::Kind::kPeriodic, 9, 0},
      {ArrivalDist::Kind::kNone, 0, 0}};
  Rng rng(0x5EED17);
  std::size_t runs = 0;
  std::int64_t plans = 0;
  std::int64_t solves = 0;
  for (int trial = 0; trial < 24; ++trial) {
    for (int kind = 0; kind < 3; ++kind) {
      const Platform platform = random_platform(rng, kind, /*tied=*/trial % 3 == 0);
      const Tree substrate = sim::stream_substrate(platform);
      for (const ArrivalDist& arrival : arrivals) {
        const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 256));
        const auto seed = static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
        const Workload workload = WorkloadGen{SizeDist{}, arrival}.make(n, seed);
        const std::unique_ptr<sim::StreamPolicy> policy = sim::make_replan_policy(platform);
        oracle::ResolvingReplan resolving(platform);
        const sim::StreamResult run = sim::simulate_stream(substrate, workload, *policy);
        const sim::StreamResult expected = sim::simulate_stream(substrate, workload, resolving);
        const std::string where = describe(platform) + " " + workload.describe();
        ASSERT_EQ(run.sim, expected.sim) << where;
        // One plan per arrival batch, as the oracle solves one; never more
        // solves than plans.
        ASSERT_EQ(work_counter(*policy, "sim.replan.plans"),
                  static_cast<std::int64_t>(resolving.solves()))
            << where;
        ASSERT_LE(work_counter(*policy, "sim.replan.solves"),
                  work_counter(*policy, "sim.replan.plans"))
            << where;
        ++runs;
        plans += work_counter(*policy, "sim.replan.plans");
        solves += work_counter(*policy, "sim.replan.solves");
      }
    }
  }
  EXPECT_EQ(runs, 24u * 3u * std::size(arrivals));
  // Reading held plans must actually save solves on these streams.
  EXPECT_LT(2 * solves, plans);
}

TEST(Replan, ChainPlanOfBTasksIsTheSuffixOfTheNTaskPlan) {
  Rng rng(0xC4A1);
  constexpr std::size_t kN = 64;
  for (int trial = 0; trial < 40; ++trial) {
    const Chain chain = random_leg(rng, static_cast<std::size_t>(rng.uniform(1, 8)));
    const ChainSchedule longest = ChainScheduler::schedule(chain, kN);
    for (std::size_t b = 1; b <= kN; ++b) {
      const ChainSchedule plan = ChainScheduler::schedule(chain, b);
      ASSERT_EQ(plan.tasks.size(), b);
      for (std::size_t i = 0; i < b; ++i) {
        ASSERT_EQ(plan.tasks[i].proc, longest.tasks[kN - b + i].proc)
            << chain.describe() << " b=" << b << " task " << i;
      }
    }
  }
}

/// Forwards to `inner` and records the backlog — tasks observed, not yet
/// dispatched — at every dispatch.
class BacklogRecorder final : public sim::StreamPolicy {
 public:
  explicit BacklogRecorder(sim::StreamPolicy& inner) : inner_(&inner) {}
  void observe(const sim::StreamArrival& arrival) override {
    ++backlog_;
    inner_->observe(arrival);
  }
  NodeId choose(std::size_t task, const sim::DispatchContext& ctx) override {
    backlogs.push_back(backlog_--);
    return inner_->choose(task, ctx);
  }
  std::vector<std::size_t> backlogs;  ///< the backlog at each dispatch, in order

 private:
  sim::StreamPolicy* inner_;
  std::size_t backlog_ = 0;
};

TEST(Replan, ChainDispatchesTheFirstTaskOfEachBacklogsPlan) {
  const ArrivalDist arrivals[] = {{ArrivalDist::Kind::kPoisson, 3, 0},
                                  {ArrivalDist::Kind::kPoisson, 12, 0},
                                  {ArrivalDist::Kind::kBursts, 6, 40},
                                  {ArrivalDist::Kind::kPeriodic, 4, 0}};
  Rng rng(0xBAC106);
  bool grew_and_shrank = false;
  for (int trial = 0; trial < 30; ++trial) {
    const Chain chain = random_leg(rng, static_cast<std::size_t>(rng.uniform(1, 8)));
    const Tree substrate = sim::stream_substrate(chain);
    for (const ArrivalDist& arrival : arrivals) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform(1, 200));
      const auto seed = static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
      const Workload workload = WorkloadGen{SizeDist{}, arrival}.make(n, seed);
      const std::unique_ptr<sim::StreamPolicy> policy = sim::make_replan_policy(chain);
      BacklogRecorder recorder(*policy);
      const sim::SimResult run = sim::drive_stream(substrate, workload, recorder);
      ASSERT_EQ(recorder.backlogs.size(), n);
      std::map<std::size_t, NodeId> first;  // backlog -> its plan's first node
      std::size_t largest = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t b = recorder.backlogs[i];
        if (!first.count(b)) first[b] = ChainScheduler::schedule(chain, b).tasks.front().proc + 1;
        ASSERT_EQ(run.tasks[i].dest, first[b])
            << chain.describe() << " " << workload.describe() << " task " << i << " b=" << b;
        largest = std::max(largest, b);
        grew_and_shrank = grew_and_shrank || (i > 0 && b > recorder.backlogs[i - 1] &&
                                              recorder.backlogs[i - 1] > 1);
      }
      EXPECT_EQ(work_counter(*policy, "sim.replan.ranks"), static_cast<std::int64_t>(largest))
          << chain.describe() << " " << workload.describe();
      EXPECT_EQ(work_counter(*policy, "sim.replan.solves"), 0);
    }
  }
  // Some stream let the backlog fall and rise again mid-plan.
  EXPECT_TRUE(grew_and_shrank);
}

TEST(Replan, ChainBacklogsNearTheTimeRangeMatchTheResolvingPolicy) {
  // T∞(n) = 1 + n·W on the first processor: 5 tasks fit the time range, 6
  // do not.  The fast second processor keeps the simulated timeline small.
  constexpr Time kW = std::numeric_limits<Time>::max() / 5;
  const Chain chain = Chain::from_vectors({1, 1}, {kW, 1});
  EXPECT_NO_THROW((void)chain.t_infinity(5));
  EXPECT_THROW((void)chain.t_infinity(6), std::invalid_argument);
  // Three tasks plan 3; the batch at 1 meets a backlog of 4, then 5: each
  // grows the profile to its own size, whose T∞ still fits.
  const Workload workload = Workload::released({0, 0, 0, 1, 1, 2, 2});
  const Tree substrate = sim::stream_substrate(chain);
  const std::unique_ptr<sim::StreamPolicy> policy = sim::make_replan_policy(chain);
  oracle::ResolvingReplan resolving{Platform{chain}};
  const sim::StreamResult run = sim::simulate_stream(substrate, workload, *policy);
  EXPECT_EQ(run.sim, sim::simulate_stream(substrate, workload, resolving).sim);
  EXPECT_EQ(work_counter(*policy, "sim.replan.plans"),
            static_cast<std::int64_t>(resolving.solves()));
  EXPECT_GE(resolving.solves(), 3u);
  // A backlog of 6, whose T∞ leaves the time range, is rejected as the
  // solver rejects it.
  const Workload six = Workload::identical(6);
  EXPECT_THROW((void)sim::simulate_stream(substrate, six, *sim::make_replan_policy(chain)),
               std::invalid_argument);
  oracle::ResolvingReplan rejecting{Platform{chain}};
  EXPECT_THROW((void)sim::simulate_stream(substrate, six, rejecting), std::invalid_argument);
}

TEST(Replan, RunStreamFoldsTheWorkCounters) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const auto counters = [&](std::string_view algorithm, const Workload& workload) {
    obs::MetricsRegistry metrics;
    (void)api::run_stream(chain, algorithm, workload, 1, api::registry(),
                          /*attach_reference=*/false, obs::Observation{&metrics, nullptr});
    std::vector<std::int64_t> out;
    for (const char* name : {"sim.replan.plans", "sim.replan.solves"}) {
      out.push_back(-1);
      for (const obs::MetricSample& sample : metrics.snapshot()) {
        if (sample.name == name) out.back() = sample.value;
      }
    }
    return out;
  };
  // A chain reads its emission profile and never solves.  Everything at 0:
  // one plan.
  EXPECT_EQ(counters("replan", Workload::identical(20)), (std::vector<std::int64_t>{1, 0}));
  // Three batches of one, each dispatched before the next arrives: three
  // plans, every one the profile's first rank.
  EXPECT_EQ(counters("replan", Workload::released({0, 50, 100})),
            (std::vector<std::int64_t>{3, 0}));
}

}  // namespace
}  // namespace mst
