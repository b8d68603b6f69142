// Tests of the executable Definition 1: every condition must be checked,
// and only actual violations may be reported.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mst/schedule/feasibility.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

/// The paper's Fig 2 schedule, hand-transcribed: four tasks on processor 0,
/// one on processor 1, makespan 14.
ChainSchedule fig2_schedule() {
  ChainSchedule s{fig2_chain(), {}};
  s.tasks.push_back(ChainTask{0, 2, {0}});
  s.tasks.push_back(ChainTask{0, 5, {2}});
  s.tasks.push_back(ChainTask{1, 9, {4, 6}});
  s.tasks.push_back(ChainTask{0, 8, {6}});
  s.tasks.push_back(ChainTask{0, 11, {9}});
  return s;
}

TEST(Feasibility, AcceptsThePaperExample) {
  const FeasibilityReport report = check_feasibility(fig2_schedule());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.summary(), "feasible");
}

TEST(Feasibility, AcceptsEmptySchedule) {
  EXPECT_TRUE(check_feasibility(ChainSchedule{fig2_chain(), {}}).ok());
}

TEST(Feasibility, DetectsCondition1StoreAndForward) {
  ChainSchedule s{fig2_chain(), {}};
  // Re-emitted on link 1 at time 1 although reception on link 0 ends at 2.
  s.tasks.push_back(ChainTask{1, 9, {0, 1}});
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("condition (1)"), std::string::npos) << report.summary();
}

TEST(Feasibility, DetectsCondition2ReceptionBeforeStart) {
  ChainSchedule s{fig2_chain(), {}};
  // Arrival at 2, execution starts at 1.
  s.tasks.push_back(ChainTask{0, 1, {0}});
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("condition (2)"), std::string::npos) << report.summary();
}

TEST(Feasibility, DetectsCondition3ProcessorOverlap) {
  ChainSchedule s{fig2_chain(), {}};
  s.tasks.push_back(ChainTask{0, 2, {0}});
  s.tasks.push_back(ChainTask{0, 4, {2}});  // starts while the first runs (w=3)
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("condition (3)"), std::string::npos) << report.summary();
}

TEST(Feasibility, DetectsCondition4LinkOverlap) {
  ChainSchedule s{fig2_chain(), {}};
  s.tasks.push_back(ChainTask{0, 2, {0}});
  s.tasks.push_back(ChainTask{0, 5, {1}});  // link 0 busy during [0,2)
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("condition (4)"), std::string::npos) << report.summary();
}

TEST(Feasibility, DetectsStructuralErrors) {
  ChainSchedule wrong_dest{fig2_chain(), {ChainTask{5, 2, {0}}}};
  EXPECT_FALSE(check_feasibility(wrong_dest).ok());
  ChainSchedule wrong_len{fig2_chain(), {ChainTask{1, 9, {0}}}};
  EXPECT_FALSE(check_feasibility(wrong_len).ok());
}

TEST(Feasibility, RejectsNegativeTimes) {
  // Arrival 0 + 1 <= start 5, so only the negative emission is wrong; the
  // task takes no interval, so the overlapping second task is not flagged.
  ChainSchedule s{Chain::from_vectors({1, 1}, {1, 1}), {}};
  s.tasks.push_back(ChainTask{1, 5, {-7, 0}});
  s.tasks.push_back(ChainTask{1, 5, {0, 1}});
  EXPECT_EQ(check_feasibility(s).violations(),
            std::vector<std::string>{
                "structure violated by task 0: negative start or emission time"});
  s.tasks[0] = ChainTask{0, -1, {0}};
  EXPECT_EQ(check_feasibility(s).violations(),
            std::vector<std::string>{
                "structure violated by task 0: negative start or emission time"});
}

TEST(Feasibility, CollectsAllViolations) {
  ChainSchedule s{fig2_chain(), {}};
  s.tasks.push_back(ChainTask{0, 1, {0}});   // condition (2)
  s.tasks.push_back(ChainTask{0, 2, {1}});   // condition (4) and (3)
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_GE(report.violations().size(), 2u) << report.summary();
}

TEST(Feasibility, BackToBackIsLegal) {
  // Touching intervals (end == start) must not be flagged.
  ChainSchedule s{fig2_chain(), {}};
  s.tasks.push_back(ChainTask{0, 2, {0}});
  s.tasks.push_back(ChainTask{0, 5, {2}});  // link [2,4) after [0,2); proc [5,8) after [2,5)
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
}

/// A fork schedule is the schedule of the fork's unit-leg spider: the task
/// `(slave, emission, start)` runs on leg `slave`'s only processor, and the
/// spider checker covers every fork condition.
SpiderTask fork_task(std::size_t slave, Time emission, Time start) {
  return SpiderTask{slave, 0, start, {emission}};
}

TEST(ForkFeasibility, AcceptsSerializedEmissions) {
  const Fork fork({Processor{2, 3}, Processor{1, 10}});
  SpiderSchedule s{Spider::from_fork(fork), {fork_task(0, 0, 2), fork_task(1, 2, 3)}};
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
}

TEST(ForkFeasibility, DetectsMasterPortOverlap) {
  const Fork fork({Processor{2, 3}, Processor{1, 10}});
  // port busy [0,2)
  SpiderSchedule s{Spider::from_fork(fork), {fork_task(0, 0, 2), fork_task(1, 1, 3)}};
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("master one-port"), std::string::npos) << report.summary();
}

TEST(ForkFeasibility, DetectsEarlyStartAndSlaveOverlap) {
  const Spider fork = Spider::from_fork(Fork({Processor{2, 3}}));
  SpiderSchedule early{fork, {fork_task(0, 0, 1)}};  // arrives at 2
  const FeasibilityReport early_report = check_feasibility(early);
  ASSERT_FALSE(early_report.ok());
  EXPECT_NE(early_report.summary().find("arrival 2 > start 1"), std::string::npos)
      << early_report.summary();
  SpiderSchedule overlap{fork, {fork_task(0, 0, 2), fork_task(0, 2, 4)}};  // [2,5) and [4,7)
  const FeasibilityReport overlap_report = check_feasibility(overlap);
  ASSERT_FALSE(overlap_report.ok());
  EXPECT_NE(overlap_report.summary().find("condition (3) on processor 0"), std::string::npos)
      << overlap_report.summary();
}

TEST(ForkFeasibility, DetectsBadSlaveIndex) {
  const Fork fork({Processor{2, 3}});
  SpiderSchedule s{Spider::from_fork(fork), {fork_task(3, 0, 2)}};
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("leg outside the spider"), std::string::npos)
      << report.summary();
}

TEST(SpiderFeasibility, AcceptsIndependentLegs) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  SpiderSchedule s{spider, {}};
  s.tasks.push_back(SpiderTask{0, 0, 2, {0}});
  s.tasks.push_back(SpiderTask{1, 0, 6, {2}});  // master port [2,6) after [0,2)
  EXPECT_TRUE(check_feasibility(s).ok()) << check_feasibility(s).summary();
}

TEST(SpiderFeasibility, DetectsCrossLegMasterConflict) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  SpiderSchedule s{spider, {}};
  s.tasks.push_back(SpiderTask{0, 0, 2, {0}});   // port busy [0,2)
  s.tasks.push_back(SpiderTask{1, 0, 5, {1}});   // port claimed at 1
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("master one-port"), std::string::npos) << report.summary();
}

TEST(SpiderFeasibility, AppliesChainConditionsInsideLegs) {
  const Spider spider{fig2_chain()};
  SpiderSchedule s{spider, {SpiderTask{0, 1, 3, {0, 2}}}};  // arrival 5 > start 3
  const FeasibilityReport report = check_feasibility(s);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("condition (2)"), std::string::npos) << report.summary();
}

TEST(SpiderFeasibility, RejectsNegativeTimes) {
  // Task 1 is leg 1's first task (leg-local index 0); it joins neither its
  // leg's buckets nor the master's out-port, where it would overlap task 0.
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  SpiderSchedule s{spider, {}};
  s.tasks.push_back(SpiderTask{0, 0, 2, {0}});
  s.tasks.push_back(SpiderTask{1, 0, -3, {1}});
  EXPECT_EQ(check_feasibility(s).violations(),
            std::vector<std::string>{
                "structure violated by task 0: leg 1: negative start or emission time"});
}

TEST(SpiderFeasibility, DetectsBadLegIndex) {
  const Spider spider{fig2_chain()};
  SpiderSchedule s{spider, {SpiderTask{4, 0, 2, {0}}}};
  EXPECT_FALSE(check_feasibility(s).ok());
}

}  // namespace
}  // namespace mst
