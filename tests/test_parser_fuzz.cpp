// Parser robustness fuzzing: mutated and garbage inputs must either parse
// cleanly or throw `std::invalid_argument` — never crash, never throw
// anything else (`std::bad_alloc` and `std::length_error` included, so a
// header count the file cannot back must not reach an allocation), never
// return a platform/workload/schedule that violates the structural
// invariants.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mst/api/platform_io.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/platform/io.hpp"
#include "mst/schedule/schedule_io.hpp"
#include "mst/workload/workload_io.hpp"

namespace mst {
namespace {

std::string mutate_text(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const int op = static_cast<int>(rng.uniform(0, 4));
  const auto pos =
      static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(text.size()) - 1));
  switch (op) {
    case 4: {  // grow the number at or after `pos` by up to 15 digits
      std::size_t end = text.find_first_of("0123456789", pos);
      if (end == std::string::npos) break;
      end = text.find_first_not_of("0123456789", end);
      if (end == std::string::npos) end = text.size();
      const auto digits = static_cast<std::size_t>(rng.uniform(1, 15));
      for (std::size_t i = 0; i < digits; ++i) {
        text.insert(end, 1, static_cast<char>('0' + rng.uniform(0, 9)));
      }
      break;
    }
    case 0:  // flip a character to a random printable one
      text[pos] = static_cast<char>(rng.uniform(32, 126));
      break;
    case 1:  // delete a chunk
      text.erase(pos, static_cast<std::size_t>(rng.uniform(1, 5)));
      break;
    case 2:  // duplicate a chunk
      text.insert(pos, text.substr(pos, static_cast<std::size_t>(rng.uniform(1, 8))));
      break;
    default:  // truncate
      text.resize(pos);
      break;
  }
  return text;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedPlatformsParseOrThrow) {
  Rng rng(GetParam());
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 60; ++trial) {
    Rng inst = rng.split();
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
    std::string text = write_spider(spider);
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      const Spider parsed = parse_spider(text);
      // If it parsed, it must be a structurally valid platform.
      EXPECT_GE(parsed.num_legs(), 1u);
      for (const Chain& leg : parsed.legs()) {
        for (const Processor& p : leg.procs()) {
          EXPECT_GE(p.comm, 0);
          EXPECT_GE(p.work, 1);
        }
      }
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(ParserFuzz, MutatedTreesParseOrThrow) {
  Rng rng(GetParam() + 31);
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  for (int trial = 0; trial < 60; ++trial) {
    Rng inst = rng.split();
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 8)), params);
    const std::string clean = write_tree(tree);
    // Clean text round-trips exactly.
    EXPECT_EQ(write_tree(parse_tree(clean)), clean);

    std::string text = clean;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      const Tree parsed = parse_tree(text);
      // If it parsed, it must be a structurally valid platform: acyclic by
      // construction (parents precede children), sane processor values.
      EXPECT_GE(parsed.size(), 1u);
      for (NodeId v = 1; v < parsed.size(); ++v) {
        EXPECT_LT(parsed.parent(v), v);
        EXPECT_GE(parsed.proc(v).comm, 0);
        EXPECT_GE(parsed.proc(v).work, 1);
      }
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(ParserFuzz, MutatedSchedulesParseOrThrow) {
  Rng rng(GetParam() + 77);
  GeneratorParams params{1, 8, PlatformClass::kUniform};
  for (int trial = 0; trial < 40; ++trial) {
    Rng inst = rng.split();
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 3)), 2, params);
    const SpiderSchedule schedule =
        SpiderScheduler::schedule(spider, static_cast<std::size_t>(rng.uniform(1, 6)));
    std::string text = write_schedule(schedule);
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      const SpiderSchedule parsed = parse_spider_schedule(text);
      // Structural invariants only; semantic feasibility is separate.
      for (const SpiderTask& t : parsed.tasks) {
        EXPECT_LT(t.leg, parsed.spider.num_legs());
        EXPECT_EQ(t.emissions.size(), t.proc + 1);
      }
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, MutatedWorkloadsParseOrThrow) {
  Rng rng(GetParam() + 113);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(1, 8));
    std::vector<Time> sizes(n);
    std::vector<Time> release(n);
    for (std::size_t i = 0; i < n; ++i) {
      sizes[i] = rng.uniform(1, 9);
      release[i] = rng.uniform(0, 30);
    }
    std::string text = write_workload(Workload(n, std::move(sizes), std::move(release)));
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      const Workload parsed = parse_workload(text);
      // If it parsed, it must be a valid workload (a grown count with no
      // date or size line parses as that many unit tasks).
      for (const Time size : parsed.sizes()) EXPECT_GE(size, 1);
      for (const Time release : parsed.releases()) EXPECT_GE(release, 0);
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

TEST_P(ParserFuzz, RandomGarbageNeverCrashes) {
  Rng rng(GetParam() + 154);
  for (int trial = 0; trial < 60; ++trial) {
    std::string garbage;
    const auto len = static_cast<std::size_t>(rng.uniform(0, 200));
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.uniform(9, 126)));
    }
    for (int which = 0; which < 5; ++which) {
      try {
        switch (which) {
          case 0: (void)api::parse_any_platform(garbage); break;
          case 1: (void)parse_tree(garbage); break;
          case 2: (void)parse_chain_schedule(garbage); break;
          case 3: (void)parse_workload(garbage); break;
          default: (void)parse_spider_schedule(garbage); break;
        }
      } catch (const std::invalid_argument&) {
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace mst
