// Distributed, resumable sweeps: journal record round-trips, torn-tail
// truncation recovery, flush-pipelined concurrent appends, their sticky
// failure and a crash before `sync()`, resume-skips-completed-cells, and the
// merge contract — N shard journals merge into CSV/JSON byte-identical to the
// single-process run (both batch modes, 2- and 3-way splits).

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mst/obs/metrics.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"

namespace mst::scenario {
namespace {

/// A small all-kinds grid exercising both work axes — big enough that a
/// 3-way shard split leaves several same-platform batches per shard.
SweepSpec small_grid() {
  SweepSpec spec;
  spec.name = "journal";
  spec.seed = 42;
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kFork,
                api::PlatformKind::kSpider, api::PlatformKind::kTree};
  spec.classes = {PlatformClass::kUniform};
  spec.sizes = {2, 3};
  spec.instances = 2;
  spec.tasks = {4, 8};
  spec.deadlines = {30};
  return spec;
}

/// Fresh per-test scratch directory under the gtest temp root.
/// The shard file a journal writes: `DIR/shard-<i>-of-<N>.mstj`.
std::string shard_file(const std::string& dir, std::size_t shard_index, std::size_t shard_count) {
  return dir + "/shard-" + std::to_string(shard_index) + "-of-" + std::to_string(shard_count) +
         ".mstj";
}

std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "mst_journal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CellOutcome sample_outcome() {
  CellOutcome out;
  out.cell.index = 7;
  out.cell.spec_name = "round\ntrip \\ spec";  // escapes must survive
  out.cell.kind = "spider";
  out.cell.cls = "comm-bound";
  out.cell.size = 3;
  out.cell.instance = 1;
  out.cell.platform_seed = 0xDEADBEEFCAFEBABEull;
  out.cell.algorithm = "optimal";
  out.cell.mode = CellMode::kStream;
  out.cell.n = 12;
  out.cell.deadline = 40;
  out.cell.seed = 0xFEEDFACE12345678ull;
  out.cell.workload_label = "poisson(3)";
  out.cell.workload_seed = 99;
  out.tasks = 12;
  out.makespan = 137;
  out.lower_bound = 120;
  out.optimal = true;
  out.throughput = 12.0 / 137.0;  // must round-trip to the exact bits
  out.wall_ms = 1.25;
  out.error = "boom: line1\nline2";
  out.mean_latency = 3.9999999999999996;
  out.peak_backlog = 5;
  out.regret = 1.0833333333333333;
  obs::MetricSample counter;
  counter.name = "sim.engine.events";
  counter.type = obs::MetricType::kCounter;
  counter.value = 321;
  obs::MetricSample hist;
  hist.name = "stream.latency";
  hist.type = obs::MetricType::kHistogram;
  hist.determinism = obs::DeterminismClass::kWallTime;
  hist.count = 12;
  hist.sum = 48;
  hist.buckets[0] = 2;
  hist.buckets[5] = 10;
  out.metrics = {counter, hist};
  return out;
}

TEST(JournalRecord, RoundTripsEveryField) {
  const CellOutcome out = sample_outcome();
  const CellOutcome back = decode_record(encode_record(out));

  EXPECT_EQ(back.cell.index, out.cell.index);
  EXPECT_EQ(back.cell.spec_name, out.cell.spec_name);
  EXPECT_EQ(back.cell.kind, out.cell.kind);
  EXPECT_EQ(back.cell.cls, out.cell.cls);
  EXPECT_EQ(back.cell.size, out.cell.size);
  EXPECT_EQ(back.cell.instance, out.cell.instance);
  EXPECT_EQ(back.cell.platform_seed, out.cell.platform_seed);
  EXPECT_EQ(back.cell.algorithm, out.cell.algorithm);
  EXPECT_EQ(back.cell.mode, out.cell.mode);
  EXPECT_EQ(back.cell.n, out.cell.n);
  EXPECT_EQ(back.cell.deadline, out.cell.deadline);
  EXPECT_EQ(back.cell.seed, out.cell.seed);
  EXPECT_EQ(back.cell.workload_label, out.cell.workload_label);
  EXPECT_EQ(back.cell.workload_seed, out.cell.workload_seed);
  // Key-only decode: live pointers are the resuming runner's to restore.
  EXPECT_EQ(back.cell.platform, nullptr);
  EXPECT_EQ(back.cell.workload, nullptr);

  EXPECT_EQ(back.tasks, out.tasks);
  EXPECT_EQ(back.makespan, out.makespan);
  EXPECT_EQ(back.lower_bound, out.lower_bound);
  EXPECT_EQ(back.optimal, out.optimal);
  // %.17g + strtod is exact for doubles: the same bits, not "close".
  EXPECT_EQ(back.throughput, out.throughput);
  EXPECT_EQ(back.wall_ms, out.wall_ms);
  EXPECT_EQ(back.error, out.error);
  EXPECT_EQ(back.mean_latency, out.mean_latency);
  EXPECT_EQ(back.peak_backlog, out.peak_backlog);
  EXPECT_EQ(back.regret, out.regret);
  ASSERT_EQ(back.metrics.size(), out.metrics.size());
  EXPECT_EQ(back.metrics[0], out.metrics[0]);
  EXPECT_EQ(back.metrics[1], out.metrics[1]);
}

TEST(JournalRecord, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_record(""), std::invalid_argument);
  EXPECT_THROW(decode_record("out 1 2 3 0 4\n"), std::invalid_argument);  // no cell line
  EXPECT_THROW(decode_record("cell not-a-number\n"), std::invalid_argument);
}

TEST(JournalGrid, FingerprintBindsToTheGrid) {
  std::vector<Cell> cells = expand(small_grid());
  const std::uint64_t fp = grid_fingerprint(cells);
  EXPECT_EQ(grid_fingerprint(cells), fp);  // stable
  cells[3].seed ^= 1;                      // any key change moves it
  EXPECT_NE(grid_fingerprint(cells), fp);
}

TEST(JournalFile, PathFormat) {
  const std::string dir = scratch_dir("path_format");
  const Journal journal(dir, 2, 5, 16, /*fingerprint=*/0);
  EXPECT_EQ(journal.path(), dir + "/shard-2-of-5.mstj");
  EXPECT_TRUE(std::filesystem::exists(shard_file(dir, 2, 5)));
}

TEST(JournalFile, AppendReplayAndHeaderMismatch) {
  const std::string dir = scratch_dir("append_replay");
  const CellOutcome out = sample_outcome();
  {
    Journal journal(dir, 0, 2, 16, /*fingerprint=*/0xABCD);
    EXPECT_TRUE(journal.replayed().outcomes.empty());
    EXPECT_FALSE(journal.replayed().torn);
    journal.append(out);
  }
  {
    Journal journal(dir, 0, 2, 16, 0xABCD);
    ASSERT_EQ(journal.replayed().outcomes.size(), 1u);
    EXPECT_FALSE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[0].cell.index, out.cell.index);
    EXPECT_EQ(journal.replayed().outcomes[0].error, out.error);
  }
  // A different grid fingerprint (an edited spec), shard position or cell
  // count must be rejected loudly, never resumed.
  EXPECT_THROW(Journal(dir, 0, 2, 16, 0xABCE), std::runtime_error);
  EXPECT_THROW(Journal(dir, 0, 2, 17, 0xABCD), std::runtime_error);
}

TEST(JournalFile, TornTailIsTruncatedAndRecovered) {
  const std::string dir = scratch_dir("torn_tail");
  CellOutcome a = sample_outcome();
  CellOutcome b = sample_outcome();
  b.cell.index = 9;
  b.error.clear();
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    journal.append(a);
    journal.append(b);
  }
  const std::string path = shard_file(dir, 1, 3);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 7);  // tear the final record
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    ASSERT_EQ(journal.replayed().outcomes.size(), 1u);  // only `a` survives
    EXPECT_TRUE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[0].cell.index, a.cell.index);
    journal.append(b);  // the truncated tail is writable again
  }
  {
    Journal journal(dir, 1, 3, 30, 0x1234);
    ASSERT_EQ(journal.replayed().outcomes.size(), 2u);
    EXPECT_FALSE(journal.replayed().torn);
    EXPECT_EQ(journal.replayed().outcomes[1].cell.index, b.cell.index);
  }
}

TEST(JournalFile, ConcurrentAppendsReplayExactlyOnce) {
  const std::string dir = scratch_dir("concurrent");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;
  {
    Journal journal(dir, 0, 1, kThreads * kPerThread, 0x77);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&journal, t] {
        CellOutcome out = sample_outcome();
        for (std::size_t i = 0; i < kPerThread; ++i) {
          out.cell.index = t * kPerThread + i;
          journal.append(out);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
    journal.sync();
    EXPECT_GE(journal.syncs(), 1u);
    EXPECT_LE(journal.syncs(), kThreads * kPerThread);
  }
  Journal reopened(dir, 0, 1, kThreads * kPerThread, 0x77);
  EXPECT_FALSE(reopened.replayed().torn);
  std::multiset<std::size_t> indices;
  for (const CellOutcome& out : reopened.replayed().outcomes) {
    indices.insert(out.cell.index);
    EXPECT_EQ(out.error, sample_outcome().error);
  }
  ASSERT_EQ(indices.size(), kThreads * kPerThread);
  for (std::size_t index = 0; index < kThreads * kPerThread; ++index) {
    EXPECT_EQ(indices.count(index), 1u) << "cell " << index;
  }
}

// Four threads appending 1 MiB frames often outrun the flusher past
// `Journal::kMaxPendingBytes` and wait for it to take a group; whether or
// not they had to wait, every frame lands exactly once.
TEST(JournalFile, AppendsPastThePendingBoundWaitAndLand) {
  const std::string dir = scratch_dir("bound");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 8;
  const std::string big(std::size_t{1} << 20, 'x');
  {
    Journal journal(dir, 0, 1, kThreads * kPerThread, 0xB16);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&journal, &big, t] {
        CellOutcome out = sample_outcome();
        out.error = big;
        for (std::size_t i = 0; i < kPerThread; ++i) {
          out.cell.index = t * kPerThread + i;
          journal.append(out);
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
  }
  Journal reopened(dir, 0, 1, kThreads * kPerThread, 0xB16);
  EXPECT_FALSE(reopened.replayed().torn);
  std::multiset<std::size_t> indices;
  for (const CellOutcome& out : reopened.replayed().outcomes) {
    indices.insert(out.cell.index);
    EXPECT_EQ(out.error, big);
  }
  ASSERT_EQ(indices.size(), kThreads * kPerThread);
  for (std::size_t index = 0; index < kThreads * kPerThread; ++index) {
    EXPECT_EQ(indices.count(index), 1u) << "cell " << index;
  }
}

/// Runs in a forked child: eight threads append, each calling `sync()`
/// after every tenth append and once at the end, until a small file-size
/// limit tears a group the flusher writes; then the limit is lifted (as
/// when a full disk frees space).  Every thread must observe the failure,
/// through `append` or `sync`, and from then on both must throw without
/// writing a byte.  A reopen must replay every frame queued before a
/// `sync()` that returned, each thread's frames as a prefix of its append
/// order.  Exits 0 when all of that holds, else prints why and exits 1.
void appends_after_a_failure_write_nothing(const std::string& dir) {
  const auto fail = [](const std::string& why) {
    std::fprintf(stderr, "%s\n", why.c_str());
    std::exit(1);
  };
  std::signal(SIGXFSZ, SIG_IGN);  // over-limit writes then fail with EFBIG
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kMaxPerThread = 1000;
  constexpr std::size_t kSyncEvery = 10;
  std::vector<std::size_t> queued(kThreads, 0);  // appends that returned
  std::vector<std::size_t> synced(kThreads, 0);  // of those, covered by a returned sync
  std::uintmax_t torn_size = 0;
  {
    Journal journal(dir, 0, 1, kThreads * kMaxPerThread + 1, 0x5EED);
    const std::string path = shard_file(dir, 0, 1);
    rlimit limit{};
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) fail("getrlimit failed");
    const rlim_t hard = limit.rlim_max;
    limit.rlim_cur = std::filesystem::file_size(path) + 4099;  // mid-frame
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) fail("setrlimit failed");

    std::vector<unsigned char> threw(kThreads, 0);
    std::vector<unsigned char> recovered(kThreads, 0);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        CellOutcome out = sample_outcome();
        try {
          for (std::size_t i = 0; i < kMaxPerThread; ++i) {
            out.cell.index = t * kMaxPerThread + i;
            journal.append(out);
            if (++queued[t] % kSyncEvery == 0) {
              journal.sync();
              synced[t] = queued[t];
            }
          }
          journal.sync();
          synced[t] = queued[t];
          return;  // never saw the failure
        } catch (const std::runtime_error&) {
          threw[t] = 1;
        }
        try {
          journal.append(out);
          recovered[t] = 1;
        } catch (const std::runtime_error&) {
        }
        try {
          journal.sync();
          recovered[t] = 1;
        } catch (const std::runtime_error&) {
        }
      });
    }
    for (std::thread& thread : pool) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      if (threw[t] == 0) fail("thread " + std::to_string(t) + " never saw the failure");
      if (recovered[t] != 0) {
        fail("thread " + std::to_string(t) + " appended or synced after the failure");
      }
    }
    torn_size = std::filesystem::file_size(path);
    if (torn_size != limit.rlim_cur) fail("the failed write did not tear at the limit");

    limit.rlim_cur = hard;
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) fail("setrlimit (lift) failed");
    CellOutcome late = sample_outcome();
    late.cell.index = kThreads * kMaxPerThread;
    try {
      journal.append(late);
      fail("an append after a failed write returned");
    } catch (const std::runtime_error&) {
    }
    try {
      journal.sync();
      fail("a sync after a failed write returned");
    } catch (const std::runtime_error&) {
    }
    if (std::filesystem::file_size(path) != torn_size) {
      fail("an append after a failed write wrote past the torn frame");
    }
  }

  Journal reopened(dir, 0, 1, kThreads * kMaxPerThread + 1, 0x5EED);
  std::vector<std::vector<std::size_t>> replayed(kThreads);
  for (const CellOutcome& out : reopened.replayed().outcomes) {
    replayed[out.cell.index / kMaxPerThread].push_back(out.cell.index % kMaxPerThread);
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string thread = "thread " + std::to_string(t);
    for (std::size_t i = 0; i < replayed[t].size(); ++i) {
      if (replayed[t][i] != i) fail(thread + ": the replay is not a prefix of its appends");
    }
    if (replayed[t].size() < synced[t]) fail(thread + ": a synced frame does not replay");
    if (replayed[t].size() > queued[t]) fail(thread + ": a frame replays that never queued");
  }
  if (std::filesystem::file_size(shard_file(dir, 0, 1)) > torn_size) {
    fail("the reopened journal grew");
  }
  std::exit(0);
}

TEST(JournalFile, AppendsAfterAFailedWriteThrowAndWriteNothing) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // the child starts threads
  const std::string dir = scratch_dir("sticky_failure");
  EXPECT_EXIT(appends_after_a_failure_write_nothing(dir), ::testing::ExitedWithCode(0), "");
}

/// Holds and fails one `fsync` call (see the interposer below).
struct FsyncGate {
  std::mutex mutex;
  std::condition_variable changed;
  bool armed = false;     ///< the next call is held, then fails
  bool entered = false;   ///< a call is held
  bool released = false;  ///< the held call may return its failure
};

FsyncGate& fsync_gate() {
  static FsyncGate gate;
  return gate;
}

}  // namespace
}  // namespace mst::scenario

/// A link-time seam: this definition interposes the C library's `fsync` for
/// the whole test binary, the journal included.  Armed, it holds the next
/// call until the test releases it, then fails it with EIO; every other
/// call is the real one.
extern "C" int fsync(int fd) {
  mst::scenario::FsyncGate& gate = mst::scenario::fsync_gate();
  {
    std::unique_lock<std::mutex> lock(gate.mutex);
    if (gate.armed) {
      gate.armed = false;
      gate.entered = true;
      gate.changed.notify_all();
      gate.changed.wait(lock, [&] { return gate.released; });
      errno = EIO;
      return -1;
    }
  }
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace mst::scenario {
namespace {

// The first failed flush is sticky even when its cause goes away: a group
// whose fsync fails, with frames queued behind it, is the last thing the
// journal writes, although every later write and fsync would succeed.  Once
// a journal is open only its flusher syncs, so the armed gate holds the
// flusher inside the first group's fsync while two more frames queue.
TEST(JournalFile, NothingLandsAfterAFailedFlushOnceItsCauseLifts) {
  const std::string dir = scratch_dir("transient_failure");
  FsyncGate& gate = fsync_gate();
  std::uintmax_t failed_size = 0;
  {
    Journal journal(dir, 0, 1, 4, 0x5EED);
    CellOutcome out = sample_outcome();
    {
      std::lock_guard<std::mutex> lock(gate.mutex);
      gate.armed = true;
      gate.entered = false;
      gate.released = false;
    }
    out.cell.index = 0;
    journal.append(out);  // written, then held in its fsync
    {
      std::unique_lock<std::mutex> lock(gate.mutex);
      gate.changed.wait(lock, [&] { return gate.entered; });
    }
    for (std::size_t i = 1; i < 3; ++i) {
      out.cell.index = i;
      journal.append(out);  // queued behind the held group
    }
    failed_size = std::filesystem::file_size(shard_file(dir, 0, 1));
    {
      std::lock_guard<std::mutex> lock(gate.mutex);
      gate.released = true;  // that fsync fails; every later one succeeds
    }
    gate.changed.notify_all();
    EXPECT_THROW(journal.sync(), std::runtime_error);
    out.cell.index = 3;
    EXPECT_THROW(journal.append(out), std::runtime_error);
  }  // the destructor ends the flusher
  EXPECT_EQ(std::filesystem::file_size(shard_file(dir, 0, 1)), failed_size);
  Journal reopened(dir, 0, 1, 4, 0x5EED);
  EXPECT_EQ(reopened.replayed().outcomes.size(), 1u);
}

/// Runs in a forked child: appends `outcomes` in order through a fresh
/// journal, syncing after the first `synced`, then exits without `sync()`
/// or the destructor — a crash between `append` and `sync`.
[[noreturn]] void append_then_die(const std::string& dir, const std::vector<Cell>& cells,
                                  const std::vector<CellOutcome>& outcomes,
                                  std::size_t synced) {
  Journal journal(dir, 0, 1, cells.size(), grid_fingerprint(cells));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    journal.append(outcomes[i]);
    if (i + 1 == synced) journal.sync();
  }
  ::_exit(0);
}

TEST(JournalFile, KillBetweenAppendAndSyncReplaysAPrefixAndResumes) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // the child starts a flusher
  const std::string dir = scratch_dir("kill");
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions plain;
  plain.threads = 2;
  const std::vector<CellOutcome> reference = run_cells(cells, plain);
  const std::size_t synced = reference.size() / 2;
  EXPECT_EXIT(append_then_die(dir, cells, reference, synced), ::testing::ExitedWithCode(0), "");

  std::size_t kept = 0;
  {
    Journal reopened(dir, 0, 1, cells.size(), grid_fingerprint(cells));
    const std::vector<CellOutcome>& replayed = reopened.replayed().outcomes;
    kept = replayed.size();
    ASSERT_GE(kept, synced);
    ASSERT_LE(kept, reference.size());
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(replayed[i].cell.index, reference[i].cell.index) << "record " << i;
    }
  }
  {
    // The reopen truncated any torn tail: nothing torn is left behind.
    Journal again(dir, 0, 1, cells.size(), grid_fingerprint(cells));
    EXPECT_FALSE(again.replayed().torn);
    EXPECT_EQ(again.replayed().outcomes.size(), kept);
  }

  RunOptions resume = plain;
  resume.journal_dir = dir;
  (void)run_cells(cells, resume);
  const std::vector<CellOutcome> merged = merge_journals(dir);
  EXPECT_EQ(to_csv(merged, {}), to_csv(reference, {}));
  EXPECT_EQ(to_json(merged, {}), to_json(reference, {}));
}

TEST(ShardedRun, PartitionIsDisjointAndComplete) {
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.threads = 2;
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    options.shard_index = i;
    options.shard_count = 3;
    for (const CellOutcome& outcome : run_cells(cells, options)) {
      EXPECT_EQ(outcome.cell.index % 3, i);
      EXPECT_TRUE(seen.insert(outcome.cell.index).second) << "duplicate cell";
      ++total;
    }
  }
  EXPECT_EQ(total, cells.size());  // disjoint + complete = a partition
}

TEST(ShardedRun, OutOfRangeShardThrows) {
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.shard_count = 0;
  EXPECT_THROW(run_cells(cells, options), std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(run_cells(cells, options), std::invalid_argument);
}

TEST(ShardedRun, ResumeSkipsCompletedCellsAndAnnouncesProgress) {
  const std::string dir = scratch_dir("resume");
  const std::vector<Cell> cells = expand(small_grid());
  RunOptions options;
  options.shard_index = 0;
  options.shard_count = 2;
  options.journal_dir = dir;

  obs::MetricsRegistry first_metrics;
  options.metrics = &first_metrics;
  const std::vector<CellOutcome> first = run_cells(cells, options);

  // Second run over the same journal: every cell replays, none recomputes.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  std::vector<std::size_t> announced;
  options.on_progress = [&](std::size_t done, std::size_t total, bool failed) {
    announced.push_back(done);
    EXPECT_EQ(total, first.size());
    EXPECT_FALSE(failed);
  };
  const std::vector<CellOutcome> second = run_cells(cells, options);

  // The leading announce carries (replayed, total, false) and nothing runs
  // after it — progress never jumps backwards on a resume.
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_EQ(announced[0], first.size());

  std::int64_t replayed = 0;
  std::int64_t skipped = 0;
  std::int64_t appended = 0;
  for (const obs::MetricSample& sample : metrics.snapshot(true)) {
    if (sample.name == "scenario.journal.replayed") replayed = sample.value;
    if (sample.name == "scenario.journal.skipped") skipped = sample.value;
    if (sample.name == "scenario.journal.appended") appended = sample.value;
  }
  EXPECT_EQ(replayed, static_cast<std::int64_t>(first.size()));
  EXPECT_EQ(skipped, static_cast<std::int64_t>(first.size()));
  EXPECT_EQ(appended, 0);

  // Replayed outcomes reproduce the first run's rows byte-for-byte, and the
  // re-absorbed metric aggregate matches the fresh run's exactly — except
  // the journal bookkeeping counters themselves (a resume replays instead
  // of appending; that difference is the feature).
  EXPECT_EQ(to_csv(second, {}), to_csv(first, {}));
  const auto without_journal = [](const obs::MetricsRegistry& registry) {
    std::vector<obs::MetricSample> samples = registry.snapshot(true);
    std::erase_if(samples, [](const obs::MetricSample& sample) {
      return sample.name.rfind("scenario.journal.", 0) == 0;
    });
    return samples;
  };
  EXPECT_EQ(without_journal(metrics), without_journal(first_metrics));
}

/// The wall-time journal counter `name`, or -1 when the run did not
/// register it; `appended` receives `scenario.journal.appended`.
std::int64_t wall_time_counter(const obs::MetricsRegistry& metrics, const std::string& name,
                               std::int64_t& appended) {
  std::int64_t value = -1;
  for (const obs::MetricSample& sample : metrics.snapshot(true)) {
    if (sample.name == "scenario.journal.appended") appended = sample.value;
    if (sample.name == name) {
      EXPECT_EQ(sample.determinism, obs::DeterminismClass::kWallTime) << name;
      value = sample.value;
    }
  }
  return value;
}

TEST(ShardedRun, JournalSyncsCountTheAppendsFsyncs) {
  const std::vector<Cell> cells = expand(small_grid());
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    RunOptions options;
    options.journal_dir = scratch_dir("syncs_t" + std::to_string(threads));
    options.threads = threads;
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    (void)run_cells(cells, options);
    std::int64_t appended = 0;
    // The flusher fsyncs once per group, and run_cells returned only after
    // the last group landed.
    const std::int64_t syncs = wall_time_counter(metrics, "scenario.journal.syncs", appended);
    EXPECT_EQ(appended, static_cast<std::int64_t>(cells.size()));
    EXPECT_GE(syncs, 1);
    EXPECT_LE(syncs, appended);
    EXPECT_GE(wall_time_counter(metrics, "scenario.journal.flush_us", appended), 0);
    // Wall-time class: the deterministic JSON never shows them; --timing does.
    EXPECT_EQ(metrics.to_json().find("scenario.journal.syncs"), std::string::npos);
    EXPECT_EQ(metrics.to_json().find("scenario.journal.flush_us"), std::string::npos);
    EXPECT_NE(metrics.to_json(true).find("scenario.journal.flush_us"), std::string::npos);
  }
}

/// Runs in a forked child: journaled sweeps under a file-size limit that
/// admits a journal's header and nothing more.  A shard that owns one cell
/// appends once, and that append returns before the flusher can fail, so
/// only `run_cells`' closing sync can report the failure; the whole grid at
/// eight threads meets it through appends or the sync.  Either way
/// `run_cells` must throw.  Exits 0 when both runs threw, else prints
/// which returned and exits 1.
void sweeps_that_cannot_journal_throw(const std::string& dir) {
  std::signal(SIGXFSZ, SIG_IGN);  // over-limit writes then fail with EFBIG
  const std::vector<Cell> cells = expand(small_grid());
  { Journal probe(dir + "/probe", 0, cells.size(), cells.size(), grid_fingerprint(cells)); }
  rlimit limit{};
  if (getrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(1);
  limit.rlim_cur = std::filesystem::file_size(shard_file(dir + "/probe", 0, cells.size()));
  if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(1);
  for (const std::size_t shards : {cells.size(), std::size_t{1}}) {
    RunOptions options;
    options.threads = shards == 1 ? 8 : 1;
    options.shard_count = shards;
    options.journal_dir = dir + "/of" + std::to_string(shards);
    try {
      (void)run_cells(cells, options);
      std::fprintf(stderr, "run_cells returned with %zu shards\n", shards);
      std::exit(1);
    } catch (const std::runtime_error&) {
    }
  }
  std::exit(0);
}

TEST(ShardedRun, ASweepWhoseJournalCannotWriteThrows) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";  // the child starts threads
  const std::string dir = scratch_dir("cannot_write");
  EXPECT_EXIT(sweeps_that_cannot_journal_throw(dir), ::testing::ExitedWithCode(0), "");
}

TEST(ShardedRun, ResumeRejectsAForeignGrid) {
  const std::string dir = scratch_dir("foreign");
  SweepSpec spec = small_grid();
  const std::vector<Cell> cells = expand(spec);
  RunOptions options;
  options.journal_dir = dir;
  (void)run_cells(cells, options);
  // The same directory with a reseeded (different-fingerprint) grid: the
  // header check refuses before any cell runs.
  spec.seed = 43;
  const std::vector<Cell> other = expand(spec);
  EXPECT_THROW(run_cells(other, options), std::runtime_error);
}

/// The tentpole: shard the grid N ways through journals, merge, and demand
/// the merged report is byte-identical to the single-process run — for 2-
/// and 3-way splits, CSV and JSON.
void check_merge_identity(std::size_t shards, const std::string& tag,
                          unsigned shard_threads = 2) {
  const std::string dir = scratch_dir("merge_" + tag);
  const std::vector<Cell> cells = expand(small_grid());

  RunOptions single;
  single.threads = 2;
  const std::vector<CellOutcome> reference = run_cells(cells, single);

  for (std::size_t i = 0; i < shards; ++i) {
    RunOptions shard;
    shard.threads = shard_threads;
    shard.shard_index = i;
    shard.shard_count = shards;
    shard.journal_dir = dir;
    (void)run_cells(cells, shard);
  }
  const std::vector<CellOutcome> merged = merge_journals(dir);
  ASSERT_EQ(merged.size(), reference.size());

  ReportOptions plain;
  EXPECT_EQ(to_csv(merged, plain), to_csv(reference, plain));
  EXPECT_EQ(to_json(merged, plain), to_json(reference, plain));
  // The timing column is wall-clock and can't be byte-compared, but the
  // merged rows must still render through the --timing reporter.
  ReportOptions timing;
  timing.timing = true;
  EXPECT_FALSE(to_csv(merged, timing).empty());
}

TEST(MergeJournals, TwoShardsBatchedByteIdentical) { check_merge_identity(2, "2b"); }

TEST(MergeJournals, ThreeShardsBatchedByteIdentical) { check_merge_identity(3, "3b"); }

// Eight workers per shard feed one flusher; the merge must not notice.
TEST(MergeJournals, TwoShardsEightThreadsByteIdentical) { check_merge_identity(2, "2t8", 8); }

TEST(MergeJournals, ThreeShardsEightThreadsByteIdentical) {
  check_merge_identity(3, "3t8", 8);
}

TEST(MergeJournals, MissingShardIsAHardError) {
  const std::string dir = scratch_dir("missing_shard");
  const std::vector<Cell> cells = expand(small_grid());
  for (std::size_t i = 0; i < 2; ++i) {
    RunOptions shard;
    shard.shard_index = i;
    shard.shard_count = 3;  // shard 2 never runs
    shard.journal_dir = dir;
    (void)run_cells(cells, shard);
  }
  try {
    (void)merge_journals(dir);
    FAIL() << "merge of an incomplete shard set must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("resume"), std::string::npos) << e.what();
  }
}

TEST(MergeJournals, EmptyDirectoryIsAnError) {
  const std::string dir = scratch_dir("empty");
  std::filesystem::create_directories(dir);
  EXPECT_THROW((void)merge_journals(dir), std::runtime_error);
}

}  // namespace
}  // namespace mst::scenario
