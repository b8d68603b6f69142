#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
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
/// Appends are group-committed: the records that worker threads append
/// while one fsync is running are written and fsync'd together by the next
/// one, so a sweep pays one fsync per group of concurrent appends rather
/// than one per record.  Durability is still per cell — `append` returns
/// only after an fsync that covers its own record — and groups land
/// strictly one after another, so a crash can tear only the file's tail.  Replay detects the torn tail by frame length / CRC and truncates
/// the file back to the last valid record.  After any failed write or
/// fsync the journal refuses every later append, so no record ever lands
/// behind a torn one.
///
/// File format (text-framed, binary-safe payloads):
///
///     mstjournal 1 <shard> <shards> <cells> <fingerprint>\n
///     rec <payload-bytes> <crc32>\n
///     <payload>\n
///     rec ...
///
/// The header binds the file to one run: shard position, grid size, and a
/// fingerprint folded over every cell's key fields (seeds, algorithm, mode,
/// work point), so a journal can never silently resume a *different* sweep.
/// The payload serializes the cell's key plus the full `CellOutcome` —
/// including the per-cell metric snapshot — with `%.17g` doubles, so a
/// decoded record reproduces the reporters' bytes exactly.
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

/// `DIR/shard-<i>-of-<N>.mstj`.
std::string journal_path(const std::string& dir, std::size_t shard_index,
                         std::size_t shard_count);

/// One record's payload text.  Exposed (with `decode_record`) so tests can
/// pin the round trip; the framing (length + CRC32 + fsync) is the
/// journal's own business.
std::string encode_record(const CellOutcome& outcome);

/// Inverse of `encode_record`.  The decoded `Cell` carries key fields only
/// — `platform`/`workload` stay null (reporters never dereference them;
/// the resuming runner restores the live pointers after validating the
/// key).  Throws `std::invalid_argument` on malformed payloads.
CellOutcome decode_record(const std::string& payload);

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
/// new directory entry survives a crash too.
class Journal {
 public:
  Journal(const std::string& dir, std::size_t shard_index, std::size_t shard_count,
          std::size_t total_cells, std::uint64_t fingerprint);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  [[nodiscard]] const JournalReplay& replayed() const { return replay_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Thread-safe (the runner's workers call it directly) and durable: it
  /// returns only after an fsync that covers this record, so a cell
  /// reported complete stays complete across a SIGKILL.  Concurrent calls
  /// share one write + fsync (group commit); a call arriving while a flush
  /// runs waits for it, then joins the next group.  Throws
  /// `std::runtime_error` when the write or fsync fails — and, once one
  /// has failed, on every later call, without writing anything.
  void append(const CellOutcome& outcome) MST_EXCLUDES(mutex_);

  /// fsyncs made by `append` so far: one per group, so at most the number
  /// of successful appends.
  [[nodiscard]] std::uint64_t syncs() const MST_EXCLUDES(mutex_);

 private:
  std::string path_;
  JournalReplay replay_;
  /// Opened by the constructor and closed by the destructor; in between
  /// only the current flush leader (`flushing_`) writes through it.
  int fd_ = -1;
  mutable Mutex mutex_;
  CondVar flushed_ MST_GUARDED_BY(mutex_);              ///< signalled when a flush ends
  std::string pending_ MST_GUARDED_BY(mutex_);          ///< frames of the next group
  std::uint64_t queued_ MST_GUARDED_BY(mutex_) = 0;      ///< frames ever queued
  std::uint64_t durable_ MST_GUARDED_BY(mutex_) = 0;     ///< frames an fsync covered
  bool flushing_ MST_GUARDED_BY(mutex_) = false;         ///< a leader is writing
  std::exception_ptr failure_ MST_GUARDED_BY(mutex_);    ///< first write/fsync error
  std::uint64_t syncs_ MST_GUARDED_BY(mutex_) = 0;       ///< fsyncs made by `append`
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
