// Tests of the plain-text schedule serialization.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/common/rng.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/schedule/schedule_io.hpp"

namespace mst {
namespace {

TEST(ScheduleIo, ChainRoundTrip) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainSchedule s = ChainScheduler::schedule(chain, 5);
  const ChainSchedule parsed = parse_chain_schedule(write_schedule(s));
  EXPECT_EQ(parsed.chain, s.chain);
  EXPECT_EQ(parsed.tasks, s.tasks);
}

TEST(ScheduleIo, SpiderRoundTrip) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 6);
  const SpiderSchedule parsed = parse_spider_schedule(write_schedule(s));
  EXPECT_EQ(parsed.spider, s.spider);
  EXPECT_EQ(parsed.tasks, s.tasks);
}

TEST(ScheduleIo, RandomRoundTripsStayFeasible) {
  Rng rng(808);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 10; ++trial) {
    Rng inst = rng.split();
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 10));
    const SpiderSchedule s = SpiderScheduler::schedule(spider, n);
    const SpiderSchedule parsed = parse_spider_schedule(write_schedule(s));
    EXPECT_EQ(parsed.tasks, s.tasks);
    EXPECT_TRUE(check_feasibility(parsed).ok());
  }
}

TEST(ScheduleIo, AcceptsCommentsAndEditedFiles) {
  const std::string text = R"(
chain_schedule
chain 1
2 3   # one processor
tasks 2
# proc start emissions...
0 2 0
0 5 2
)";
  const ChainSchedule s = parse_chain_schedule(text);
  ASSERT_EQ(s.tasks.size(), 2u);
  EXPECT_EQ(s.tasks[1].start, 5);
  EXPECT_TRUE(check_feasibility(s).ok());
}

TEST(ScheduleIo, LoadsInfeasibleSchedulesForInspection) {
  // Structural parsing succeeds even when the schedule is semantically
  // broken — validation is a separate concern.
  const std::string text = "chain_schedule\nchain 1\n2 3\ntasks 2\n0 2 0\n0 2 1\n";
  const ChainSchedule s = parse_chain_schedule(text);
  EXPECT_EQ(s.tasks.size(), 2u);
  EXPECT_FALSE(check_feasibility(s).ok());
}

TEST(ScheduleIo, RejectsStructuralErrors) {
  // Wrong header.
  EXPECT_THROW(parse_chain_schedule("spider_schedule\n"), std::invalid_argument);
  // Destination outside the platform.
  EXPECT_THROW(parse_chain_schedule("chain_schedule\nchain 1\n2 3\ntasks 1\n4 2 0\n"),
               std::invalid_argument);
  // Truncated task line.
  EXPECT_THROW(parse_chain_schedule("chain_schedule\nchain 1\n2 3\ntasks 1\n0 2\n"),
               std::invalid_argument);
  // Trailing garbage.
  EXPECT_THROW(parse_chain_schedule("chain_schedule\nchain 1\n2 3\ntasks 1\n0 2 0\nextra"),
               std::invalid_argument);
  // Bad leg index in spider schedules.
  EXPECT_THROW(parse_spider_schedule(
                   "spider_schedule\nspider 1\nleg 1\n2 3\ntasks 1\n3 0 2 0\n"),
               std::invalid_argument);
  // Task counts far beyond the file's task lines end at the file's end, not
  // in a reservation of that many slots.
  for (const char* count : {"100000000000", "999999999999999999"}) {
    EXPECT_THROW(parse_chain_schedule(std::string("chain_schedule\nchain 1\n2 3\ntasks ") +
                                      count + "\n0 2 0\n"),
                 std::invalid_argument)
        << count;
    EXPECT_THROW(parse_spider_schedule(
                     std::string("spider_schedule\nspider 1\nleg 1\n2 3\ntasks ") + count +
                     "\n0 0 2 0\n"),
                 std::invalid_argument)
        << count;
  }
}

/// The message of the `invalid_argument` that parsing `text` throws.
template <class Parse>
std::string parse_error(Parse parse, const std::string& text) {
  try {
    parse(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(ScheduleIo, RejectsTimesPastTheLargestTime) {
  const std::string max = "9223372036854775807";
  // Arrival C_0 + c_0 = max + 5.
  const std::string arrival = parse_error(
      parse_chain_schedule, "chain_schedule\nchain 1\n5 5\ntasks 1\n0 0 " + max + "\n");
  EXPECT_NE(arrival.find("task 0: arrival C_k + c_k on link 0 exceeds the largest time " + max),
            std::string::npos)
      << arrival;
  // End T + w = max + 1 on the second task of a spider leg.
  const std::string end = parse_error(
      parse_spider_schedule,
      "spider_schedule\nspider 1\nleg 1\n5 1\ntasks 2\n0 0 5 0\n0 0 " + max + " 5\n");
  EXPECT_NE(end.find("task 1: end T + w exceeds the largest time " + max), std::string::npos)
      << end;
  // The largest times that still fit are accepted.
  EXPECT_NO_THROW(parse_chain_schedule("chain_schedule\nchain 1\n5 1\ntasks 1\n0 " +
                                       std::string("9223372036854775806 9223372036854775802\n")));
}

TEST(ScheduleIo, EmbeddedPlatformErrorsNameTheirLineInTheFile) {
  // The bad token `x` sits on line 6, after a comment and a blank line.
  const std::string chain_error = parse_error(parse_chain_schedule,
                                              "# a chain schedule\n"
                                              "chain_schedule\n"
                                              "\n"
                                              "chain 2\n"
                                              "1 2\n"
                                              "1 x\n"
                                              "tasks 0\n");
  EXPECT_NE(chain_error.find("line 6: expected processing time, got 'x'"), std::string::npos)
      << chain_error;
  const std::string spider_error = parse_error(parse_spider_schedule,
                                               "# a spider schedule\n"
                                               "spider_schedule\n"
                                               "\n"
                                               "spider 1\n"
                                               "leg 2 1 2\n"
                                               "1 x\n"
                                               "tasks 0\n");
  EXPECT_NE(spider_error.find("line 6: expected processing time, got 'x'"), std::string::npos)
      << spider_error;
}

TEST(ScheduleIo, DestinationOutsideThePlatformNamesItsLine) {
  // The second task names processor 5 of a one-processor chain on line 7.
  const std::string error = parse_error(parse_chain_schedule,
                                        "chain_schedule\nchain 1\n2 3\ntasks 2\n"
                                        "0 2 0\n\n5 0 0\n");
  EXPECT_NE(error.find("line 7: task destination outside the platform"), std::string::npos)
      << error;
}

TEST(ScheduleIo, LegOutsideThePlatformNamesItsLine) {
  // Leg 3 of a one-leg spider, on line 6.
  const std::string error = parse_error(parse_spider_schedule,
                                        "spider_schedule\nspider 1\nleg 1\n2 3\ntasks 1\n"
                                        "3 0 2 0\n");
  EXPECT_NE(error.find("line 6: task leg outside the platform"), std::string::npos) << error;
}

TEST(ScheduleIo, EmptySchedulesRoundTrip) {
  const Chain chain = Chain::from_vectors({1}, {1});
  ChainSchedule empty{chain, {}};
  const ChainSchedule parsed = parse_chain_schedule(write_schedule(empty));
  EXPECT_TRUE(parsed.tasks.empty());
  EXPECT_EQ(parsed.chain, chain);
}

}  // namespace
}  // namespace mst
