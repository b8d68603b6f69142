// Unit tests of the schedule data structures (chain / spider; a fork's is its
// unit-leg spider's).

#include <gtest/gtest.h>

#include <stdexcept>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(ChainScheduleData, TaskArrivalAndEnd) {
  const Chain chain = fig2_chain();
  const ChainTask near{0, 2, {0}};
  EXPECT_EQ(near.arrival(chain), 2);
  EXPECT_EQ(near.end(chain), 5);
  const ChainTask far{1, 9, {4, 6}};
  EXPECT_EQ(far.arrival(chain), 9);
  EXPECT_EQ(far.end(chain), 14);
}

TEST(ChainScheduleData, TaskValidatesShape) {
  const Chain chain = fig2_chain();
  const ChainTask bad{1, 9, {4}};  // vector too short for destination
  EXPECT_THROW((void)bad.arrival(chain), std::invalid_argument);
  const ChainTask empty{0, 0, {}};
  EXPECT_THROW((void)empty.arrival(chain), std::invalid_argument);
}

TEST(ChainScheduleData, MakespanIsLastEnd) {
  const Chain chain = fig2_chain();
  ChainSchedule s{chain, {ChainTask{0, 2, {0}}, ChainTask{1, 9, {4, 6}}}};
  EXPECT_EQ(s.makespan(), 14);
  EXPECT_EQ(s.num_tasks(), 2u);
  EXPECT_EQ((ChainSchedule{chain, {}}.makespan()), 0);
}

TEST(ChainScheduleData, TasksPerProcCounts) {
  const Chain chain = fig2_chain();
  ChainSchedule s{chain,
                  {ChainTask{0, 2, {0}}, ChainTask{0, 5, {2}}, ChainTask{1, 9, {4, 6}}}};
  const auto counts = s.tasks_per_proc();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(ChainScheduleData, ShiftMovesEveryTime) {
  const Chain chain = fig2_chain();
  ChainSchedule s{chain, {ChainTask{1, 9, {4, 6}}}};
  s.shift(-4);
  EXPECT_EQ(s.tasks[0].start, 5);
  EXPECT_EQ(s.tasks[0].emissions[0], 0);
  EXPECT_EQ(s.tasks[0].emissions[1], 2);
}

TEST(ForkScheduleData, ArrivalEndAndMakespan) {
  // A fork schedule is its unit-leg spider's: slave `i` is leg `i`.
  const Spider fork = Spider::from_fork(Fork({Processor{2, 3}, Processor{1, 10}}));
  SpiderSchedule s{fork, {SpiderTask{0, 0, 2, {0}}, SpiderTask{1, 0, 3, {2}}}};
  EXPECT_EQ(s.tasks[0].arrival(fork), 2);
  EXPECT_EQ(s.tasks[0].end(fork), 5);
  EXPECT_EQ(s.tasks[1].arrival(fork), 3);
  EXPECT_EQ(s.tasks[1].end(fork), 13);
  EXPECT_EQ(s.makespan(), 13);
  const auto counts = s.tasks_per_leg();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(SpiderScheduleData, ArrivalEndAndCounts) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  SpiderSchedule s{spider,
                   {SpiderTask{0, 1, 9, {4, 6}}, SpiderTask{1, 0, 10, {6}}}};
  EXPECT_EQ(s.tasks[0].arrival(spider), 9);
  EXPECT_EQ(s.tasks[0].end(spider), 14);
  EXPECT_EQ(s.tasks[1].arrival(spider), 10);
  EXPECT_EQ(s.tasks[1].end(spider), 12);
  EXPECT_EQ(s.makespan(), 14);
  const auto counts = s.tasks_per_leg();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(SpiderScheduleData, NormalizeShiftsEarliestEventToZero) {
  const Spider spider{fig2_chain()};
  SpiderSchedule s{spider, {SpiderTask{0, 0, 7, {5}}}};
  const Time shift = s.normalize();
  EXPECT_EQ(shift, -5);
  EXPECT_EQ(s.tasks[0].emissions[0], 0);
  EXPECT_EQ(s.tasks[0].start, 2);
  EXPECT_EQ(s.normalize(), 0);  // already normalized
}

TEST(SpiderScheduleData, EmptyScheduleBehaves) {
  const Spider spider{fig2_chain()};
  SpiderSchedule s{spider, {}};
  EXPECT_EQ(s.makespan(), 0);
  EXPECT_EQ(s.normalize(), 0);
}

}  // namespace
}  // namespace mst
