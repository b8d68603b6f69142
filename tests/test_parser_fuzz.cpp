// Parser robustness fuzzing: mutated and garbage inputs must either parse
// cleanly or throw `std::invalid_argument` — never crash, never throw
// anything else (`std::bad_alloc` and `std::length_error` included, so a
// header count the file cannot back must not reach an allocation), never
// return a platform/workload/schedule that violates the structural
// invariants.  Sweep specs and journal records are texts too; whole
// journal files are files, so replay and merge may only throw
// `std::runtime_error`.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "mst/api/platform_io.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/platform/io.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/spec.hpp"
#include "mst/schedule/schedule_io.hpp"
#include "mst/workload/workload_io.hpp"
#include "support/spec_writer.hpp"

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

/// A spec with every key and an explicit platform of each block shape.
std::string base_spec(Rng& rng) {
  scenario::SweepSpec spec;
  spec.name = "fuzz";
  spec.seed = static_cast<std::uint64_t>(rng.uniform(0, 1000));
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kSpider};
  spec.classes = {PlatformClass::kUniform, PlatformClass::kCommBound};
  spec.sizes = {2, static_cast<std::size_t>(rng.uniform(1, 9))};
  spec.instances = static_cast<std::size_t>(rng.uniform(1, 3));
  spec.depth_bias = rng.uniform01();
  spec.tasks = {4, 16};
  spec.deadlines = {rng.uniform(1, 99)};
  spec.stream = rng.chance(0.5);
  WorkloadGen sizes;
  sizes.sizes = SizeDist{SizeDist::Kind::kUniform, 1, rng.uniform(1, 5)};
  WorkloadGen bursts;
  bursts.arrival = ArrivalDist{ArrivalDist::Kind::kBursts, 2, rng.uniform(1, 9)};
  spec.workloads = {WorkloadGen{}, sizes, bursts};
  spec.algorithms = {"optimal", "forward-greedy"};
  GeneratorParams params{1, 9, PlatformClass::kUniform};
  Rng inst = rng.split();
  spec.platforms = {random_chain(inst, 2, params), random_spider(inst, 2, 2, params),
                    random_tree(inst, 3, params)};
  return oracle::write_spec(spec);
}

TEST_P(ParserFuzz, MutatedSpecsParseOrThrow) {
  Rng rng(GetParam() + 197);
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = base_spec(rng);
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      const scenario::SweepSpec parsed = scenario::parse_spec(text);
      // What parsed is a spec the canonical writer can render, and reading
      // that back gives the same spec.
      if (parsed.depth_bias == parsed.depth_bias) {  // not NaN
        EXPECT_EQ(scenario::parse_spec(oracle::write_spec(parsed)), parsed) << text;
      }
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

/// Text drawn from the characters a record must escape or keep verbatim.
std::string random_text(Rng& rng) {
  static const std::string kAlphabet = "ab # \\\n\r\t.-09";
  std::string text;
  const auto size = static_cast<std::size_t>(rng.uniform(0, 8));
  for (std::size_t i = 0; i < size; ++i) {
    text += kAlphabet[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
  }
  return text;
}

scenario::CellOutcome random_outcome(Rng& rng, std::size_t index) {
  const auto any_time = [&rng] { return static_cast<Time>(rng.next_u64()); };
  scenario::CellOutcome out;
  scenario::Cell& cell = out.cell;
  cell.index = index;
  cell.spec_name = random_text(rng);
  cell.kind = random_text(rng);
  cell.cls = random_text(rng);
  cell.size = static_cast<std::size_t>(rng.uniform(0, 64));
  cell.instance = static_cast<std::size_t>(rng.uniform(0, 8));
  cell.platform_seed = rng.next_u64();
  cell.algorithm = random_text(rng);
  cell.mode = static_cast<scenario::CellMode>(rng.uniform(0, 2));
  cell.n = static_cast<std::size_t>(rng.uniform(0, 1000));
  cell.deadline = any_time();
  cell.seed = rng.next_u64();
  cell.workload_label = random_text(rng);
  cell.workload_seed = rng.next_u64();
  out.tasks = static_cast<std::size_t>(rng.uniform(0, 1000));
  out.makespan = any_time();
  out.lower_bound = rng.uniform(0, 1000);
  out.optimal = rng.chance(0.5);
  out.throughput = rng.chance(0.2) ? std::numeric_limits<double>::infinity() : rng.uniform01();
  out.wall_ms = rng.uniform01() * 1e3;
  out.mean_latency = rng.chance(0.5) ? -1 : rng.uniform01() * 100;
  out.peak_backlog = static_cast<std::size_t>(rng.uniform(0, 9));
  out.regret = rng.chance(0.5) ? -1 : 1 + rng.uniform01();
  out.error = rng.chance(0.3) ? random_text(rng) : "";
  for (std::int64_t m = rng.uniform(0, 2); m > 0; --m) {
    obs::MetricSample& sample = out.metrics.emplace_back();
    sample.name = random_text(rng);
    sample.type = static_cast<obs::MetricType>(rng.uniform(0, 2));
    sample.determinism = static_cast<obs::DeterminismClass>(rng.uniform(0, 1));
    sample.value = any_time();
    sample.count = rng.uniform(0, 99);
    sample.sum = rng.uniform(0, 9999);
    for (std::int64_t& bucket : sample.buckets) bucket = rng.uniform(0, 9);
  }
  return out;
}

TEST_P(ParserFuzz, MutatedRecordsDecodeOrThrow) {
  Rng rng(GetParam() + 233);
  for (int trial = 0; trial < 80; ++trial) {
    const scenario::CellOutcome outcome =
        random_outcome(rng, static_cast<std::size_t>(rng.uniform(0, 99)));
    const std::string clean = scenario::encode_record(outcome);
    // A clean record round-trips to the same bytes.
    EXPECT_EQ(scenario::encode_record(scenario::decode_record(clean)), clean);

    std::string text = clean;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) text = mutate_text(std::move(text), rng);
    try {
      // What decodes re-encodes to a record that decodes to itself.
      const std::string again = scenario::encode_record(scenario::decode_record(text));
      EXPECT_EQ(scenario::encode_record(scenario::decode_record(again)), again) << text;
    } catch (const std::invalid_argument&) {
      // Expected for most mutations.
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

TEST_P(ParserFuzz, MutatedShardFilesReplayMergeOrThrow) {
  namespace fs = std::filesystem;
  Rng rng(GetParam() + 271);
  const std::string dir =
      ::testing::TempDir() + "mst_fuzz_shard_" + std::to_string(GetParam());
  const std::string file = dir + "/shard-0-of-1.mstj";
  constexpr std::uint64_t kFingerprint = 0xF022ull;
  for (int trial = 0; trial < 24; ++trial) {
    const auto cells = static_cast<std::size_t>(rng.uniform(1, 4));
    fs::remove_all(dir);
    {
      scenario::Journal journal(dir, 0, 1, cells, kFingerprint);
      for (std::size_t i = 0; i < cells; ++i) journal.append(random_outcome(rng, i));
      journal.sync();
    }
    EXPECT_EQ(scenario::merge_journals(dir).size(), cells);

    // Every other trial mutates the header line alone, whose counts size
    // what merge allocates.
    const std::string clean = read_file(file);
    const std::size_t header_end = clean.find('\n');
    const bool header_only = trial % 2 == 0;
    std::string bytes = header_only ? clean.substr(0, header_end) : clean;
    const int mutations = static_cast<int>(rng.uniform(1, 4));
    for (int m = 0; m < mutations; ++m) bytes = mutate_text(std::move(bytes), rng);
    if (header_only) bytes += clean.substr(header_end);
    write_file(file, bytes);
    try {
      EXPECT_EQ(scenario::merge_journals(dir).size(), cells);
    } catch (const std::runtime_error&) {
      // A bad header, a torn tail or a cell no record covers.
    }
    try {
      std::size_t replayed = 0;
      {
        const scenario::Journal journal(dir, 0, 1, cells, kFingerprint);
        replayed = journal.replayed().outcomes.size();
        EXPECT_LE(replayed, cells + 1);  // a duplicated chunk may repeat a record
      }
      // Replay truncated any torn tail, so the file now replays clean.
      const scenario::Journal reopened(dir, 0, 1, cells, kFingerprint);
      EXPECT_FALSE(reopened.replayed().torn);
      EXPECT_EQ(reopened.replayed().outcomes.size(), replayed);
    } catch (const std::runtime_error&) {
      // A header that names another run, or no header at all.
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace mst
