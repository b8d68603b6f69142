#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mst/common/mutex.hpp"
#include "mst/common/thread_annotations.hpp"
#include "mst/scenario/runner.hpp"

/// \file journal.hpp
/// Crash-safe per-shard cell journals for distributed, resumable sweeps.
///
/// A million-cell sweep that dies at cell 900k should not start over from
/// zero.  Cells are self-contained and byte-identical at any thread count,
/// so the unit of durability is one completed cell: the runner appends one
/// checksummed record per finished cell to its shard's journal, and a
/// restarted run replays the journal, skips every completed cell and
/// recomputes nothing.
///
/// Appends are flush-pipelined (the logging design of Aether, Johnson et
/// al., PVLDB 3(1), 2010, built on DeWitt et al.'s group commit, SIGMOD
/// 1984): `append` frames the record on the calling worker, queues it and
/// returns at once, and the journal's one flusher thread writes and fsyncs
/// whatever has queued since its last fsync as one group.  A worker never
/// waits for a disk; it blocks only when more than `kMaxPendingBytes`
/// wait for the flusher.  The price is a crash window: a record whose
/// `append` returned is durable only once `sync()` returns (the runner
/// calls it before `run_cells` returns), so a SIGKILL can lose the last
/// groups' cells, and a resume then recomputes them.  Groups land strictly
/// in queue order, one after another, so the file is always a prefix of
/// append order and a crash can tear only its tail.  Replay detects the
/// torn tail by frame length / CRC and truncates the file back to the
/// last valid record.  After any failed write or fsync the journal refuses
/// every later append and sync, so no record ever lands behind a torn one.
///
/// File format `mstjournal 1` (text-framed, binary-safe payloads; every
/// line is read through `common/lexer.hpp`):
///
///     mstjournal 1 <shard> <shards> <cells> <fingerprint>\n
///     rec <payload-bytes> <crc32>\n
///     <payload>\n
///     rec ...
///
/// The header binds the file to one run: shard position, grid size, and a
/// fingerprint folded over every cell's key fields (`key_fields`: seeds,
/// algorithm, mode, work point), so a journal can never silently resume a
/// *different* sweep.  The payload serializes the cell's key plus the full
/// `CellOutcome`, one tagged line per field group:
///
///     cell <index> <size> <instance> <platform-seed> <seed> <wl-seed> <n> <deadline> <mode>
///     spec|kind|class|algo|wl <text>
///     out <tasks> <makespan> <lower-bound> <optimal 0|1> <peak-backlog>
///     num <throughput> <wall-ms> <mean-latency> <regret>
///     err <text>
///     metric <type> <determinism> <value> <count> <sum> <16 buckets> <name-text>
///
/// with one `metric` line per entry of the per-cell metric snapshot.
/// Integers are decimal and doubles `%.17g` (`format_double`), so a decoded
/// record reproduces the reporters' bytes exactly.  A `<text>` is the rest
/// of its line after one blank, `#` included, with backslash, line feed
/// and carriage return escaped as `\\`, `\n` and `\r`.
///
/// Reassembly: `merge_journals` reads every shard file of a directory,
/// checks the shards agree (same shard count, cell count, fingerprint) and
/// jointly cover every cell index exactly once, and returns the outcomes in
/// canonical grid order — `to_csv`/`to_json` over the merged vector is
/// byte-identical to the single-process unsharded run.

namespace mst::scenario {

/// Deterministic fingerprint of an expanded grid: a stable fold over every
/// cell's key fields (index, seeds, labels, mode, work point).  Every shard
/// of the same grid computes the same value; any change to the spec, seed
/// or registry resolution changes it, so stale journals are rejected
/// loudly instead of merged silently.
std::uint64_t grid_fingerprint(const std::vector<Cell>& cells);

/// One record's payload text.  Exposed (with `decode_record`) so tests can
/// pin the bytes and the round trip; the framing (length + CRC32 + fsync)
/// is the journal's own business.
// mstlint: allow-next-line(tests-only-api) -- test_journal's frozen bytes and checked-in shard
std::string encode_record(const CellOutcome& outcome);

/// Inverse of `encode_record`.  The decoded `Cell` carries key fields only
/// — `platform`/`workload` stay null (reporters never dereference them;
/// the resuming runner restores the live pointers after validating the
/// key).  Throws `std::invalid_argument` on malformed payloads.
// mstlint: allow-next-line(tests-only-api) -- test_journal's round trips, test_parser_fuzz
CellOutcome decode_record(std::string_view payload);

/// What replaying an existing journal file found.
struct JournalReplay {
  std::vector<CellOutcome> outcomes;  ///< valid records, file order
  bool torn = false;  ///< a torn/corrupt tail was found (and truncated)
};

/// An open, append-only shard journal.
///
/// Construction creates `dir` (and the file) as needed, validates the
/// header against this run's (shard, grid) identity, replays every valid
/// record and truncates a torn tail in place, leaving the file ready for
/// appends.  Throws `std::runtime_error` when the file belongs to a
/// different run (header mismatch) or cannot be opened.
///
/// A freshly created file is fsync'd together with its directory, so the
/// new directory entry survives a crash too.  The destructor drains the
/// queue, fsyncs it and joins the flusher; it cannot throw, so a failure
/// there is lost — call `sync()` first to learn of it.
class Journal {
 public:
  Journal(const std::string& dir, std::size_t shard_index, std::size_t shard_count,
          std::size_t total_cells, std::uint64_t fingerprint);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const JournalReplay& replayed() const { return replay_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Thread-safe (the runner's workers call it directly).  Encodes and
  /// frames the record, queues it for the flusher and returns without
  /// waiting for the disk, unless more than `kMaxPendingBytes` already
  /// wait to be written: then it blocks until the flusher takes them.  The
  /// record is durable only once a later `sync()` returns.  Throws
  /// `std::runtime_error`, without queuing anything, once a write or fsync
  /// has failed.
  void append(const CellOutcome& outcome) MST_EXCLUDES(mutex_);

  /// Blocks until every record queued before the call is written and
  /// fsync'd.  Throws `std::runtime_error` once a write or fsync has
  /// failed — also when the failed group came after this call's records.
  void sync() MST_EXCLUDES(mutex_);

  /// fsyncs the flusher made so far: one per group, so at most the number
  /// of records appended, and at least one once `sync()` returned after
  /// an append.
  [[nodiscard]] std::uint64_t syncs() const MST_EXCLUDES(mutex_);

  /// Microseconds the flusher has spent in write + fsync so far.
  [[nodiscard]] std::uint64_t flush_us() const MST_EXCLUDES(mutex_);

  /// Queued bytes past which `append` waits for the flusher.  It bounds
  /// the two group buffers, and so what a crash can lose: this much
  /// queued plus the group being written.
  static constexpr std::size_t kMaxPendingBytes = std::size_t{4} << 20;

 private:
  /// The flusher thread's body: take the pending group, write and fsync
  /// it with the lock dropped, advance `durable_`, repeat; return once
  /// stopped and drained, or after the first failure.
  void flush_loop() MST_EXCLUDES(mutex_);

  std::string path_;
  JournalReplay replay_;
  /// Opened by the constructor and closed by the destructor; in between
  /// only the flusher thread writes through it.
  int fd_ = -1;
  mutable Mutex mutex_;
  CondVar queued_cv_ MST_GUARDED_BY(mutex_);            ///< work for the flusher, or stop
  CondVar flushed_cv_ MST_GUARDED_BY(mutex_);           ///< a group was taken, landed or failed
  std::string pending_ MST_GUARDED_BY(mutex_);          ///< frames of the next group
  std::uint64_t queued_ MST_GUARDED_BY(mutex_) = 0;      ///< frames ever queued
  std::uint64_t durable_ MST_GUARDED_BY(mutex_) = 0;     ///< frames an fsync covered
  bool stopping_ MST_GUARDED_BY(mutex_) = false;         ///< the destructor is draining
  std::exception_ptr failure_ MST_GUARDED_BY(mutex_);    ///< first write/fsync error
  std::uint64_t syncs_ MST_GUARDED_BY(mutex_) = 0;       ///< fsyncs made by the flusher
  std::uint64_t flush_ns_ MST_GUARDED_BY(mutex_) = 0;    ///< flusher write + fsync time
  std::thread flusher_;  ///< started last by the constructor, joined by the destructor
};

/// Reads every `shard-*-of-*.mstj` under `dir`, validates cross-shard
/// consistency (same shard count, cell count and grid fingerprint; shards
/// 0..N-1 all present; indices cover the grid exactly once) and returns
/// the outcomes ordered by canonical cell index.  Read-only: a torn tail
/// is skipped, not truncated — but the cell it would have carried is then
/// missing, which fails the coverage check with a "resume shard k" hint.
/// Throws `std::runtime_error` on any inconsistency.
std::vector<CellOutcome> merge_journals(const std::string& dir);

}  // namespace mst::scenario
