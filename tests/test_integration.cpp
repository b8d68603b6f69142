// End-to-end integration tests: generate → schedule → validate → replay →
// export, plus cross-validation between every pair of components that must
// agree.

#include <gtest/gtest.h>

#include "mst/mst.hpp"

namespace mst {
namespace {

TEST(Integration, FullChainPipeline) {
  Rng rng(2026);
  GeneratorParams params{1, 10, PlatformClass::kUniform};
  const Chain chain = random_chain(rng, 4, params);

  // Text round trip.
  const Chain parsed = parse_chain(write_chain(chain));
  ASSERT_EQ(parsed, chain);

  // Optimal schedule + validation through all three validators.
  const ChainSchedule s = ChainScheduler::schedule(parsed, 9);
  ASSERT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  const sim::ReplayResult replayed = sim::replay(s);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(replayed.makespan, s.makespan());

  // Exports produce non-trivial artifacts.
  EXPECT_GT(render_gantt(s).size(), 10u);
  EXPECT_NE(render_svg(s).find("</svg>"), std::string::npos);
  EXPECT_NE(to_json(s).find("\"makespan\""), std::string::npos);

  // Metrics agree with the schedule.
  const ChainUtilization u = compute_utilization(s);
  EXPECT_EQ(u.makespan, s.makespan());
}

TEST(Integration, FullSpiderPipeline) {
  Rng rng(2027);
  GeneratorParams params{1, 9, PlatformClass::kCorrelated};
  const Spider spider = random_spider(rng, 3, 3, params);

  const Spider parsed = parse_spider(write_spider(spider));
  ASSERT_EQ(parsed, spider);

  const SpiderSchedule s = SpiderScheduler::schedule(parsed, 8);
  ASSERT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
  const sim::ReplayResult replayed = sim::replay(s);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(replayed.makespan, s.makespan());
  EXPECT_NE(to_json(s).find("\"legs\""), std::string::npos);
}

TEST(Integration, EveryComponentAgreesOnTheOptimum) {
  // alg == brute force == replay == bounded by LB/UB, on one instance.
  const Chain chain = Chain::from_vectors({2, 1, 3}, {4, 2, 5});
  const std::size_t n = 6;
  const Time alg = ChainScheduler::makespan(chain, n);
  EXPECT_EQ(alg, brute_force_makespan(chain, n));
  EXPECT_GE(alg, makespan_lower_bound(legs_of(chain), n));
  const Workload w = Workload::identical(n);
  EXPECT_LE(alg, single_node(chain, w).makespan());
  EXPECT_LE(alg, forward_greedy(chain, w).makespan());
  EXPECT_LE(alg, round_robin(chain, w).makespan());
}

TEST(Integration, PlannerBeatsOnlinePoliciesOnAHardInstance) {
  // Anti-correlated platforms (fast links on slow processors) are where
  // lookahead pays; the planner must strictly beat round-robin here.
  const Spider spider{Chain::from_vectors({1, 2}, {9, 2}), Chain::from_vectors({3}, {4}),
                      Chain::from_vectors({2}, {7})};
  const std::size_t n = 12;
  const Time optimal = SpiderScheduler::makespan(spider, n);
  const Tree tree = tree_from_spider(spider);
  const Time rr = sim::simulate_online(tree, n, sim::OnlinePolicy::kRoundRobin, 0).makespan;
  EXPECT_LT(optimal, rr);
}

TEST(Integration, DecisionFormDrivesThroughputCurves) {
  // tasks(T) staircase from the decision form must invert the makespan
  // curve from the optimization form, spider edition.
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  for (std::size_t n = 1; n <= 5; ++n) {
    const Time m = SpiderScheduler::makespan(spider, n);
    EXPECT_GE(SpiderScheduler::max_tasks(spider, m, 20), n);
    EXPECT_LT(SpiderScheduler::max_tasks(spider, m - 1, 20), n);
  }
}

TEST(Integration, TreeHeuristicEndToEnd) {
  Rng rng(2028);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  const Tree tree = random_tree(rng, 9, params);
  const std::size_t n = 10;

  const TreeScheduleResult plan = schedule_tree_via_cover(tree, n);
  const sim::SimResult replay = sim::simulate_dispatch(tree, plan.destinations);
  const sim::SimResult ect =
      sim::simulate_online(tree, n, sim::OnlinePolicy::kEarliestCompletion, 0);

  const double rate = tree_steady_state_rate(tree);
  EXPECT_GT(rate, 0.0);
  // Both strategies complete all tasks; neither outruns the busy-time bound.
  const auto lb = static_cast<Time>(static_cast<double>(n) / rate * 0.5);
  EXPECT_GE(replay.makespan, lb);
  EXPECT_GE(ect.makespan, lb);
}

TEST(Integration, JsonDumpsAreWellFormedEnoughToDiff) {
  const Spider spider{Chain::from_vectors({2}, {3})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 2);
  const std::string json = to_json(s);
  // Balanced braces / brackets (cheap structural check without a parser).
  int braces = 0;
  int brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

}  // namespace
}  // namespace mst
