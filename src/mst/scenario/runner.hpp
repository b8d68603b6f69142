#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/spec.hpp"

/// \file runner.hpp
/// The sweep executor: fans a cell grid over a thread pool, every solve
/// dispatched through `api::Registry`.
///
/// Determinism: cells are self-contained and carry their own solve seed
/// (and, on the workload axis, their own pre-generated workload), a worker
/// claims cells by atomic index, and results land in a vector slot keyed by
/// `Cell::index` — so the output is identical at any thread count
/// (`--threads` changes wall time, never results).  The default is the
/// `materialize = false` fast path: no schedule payloads cross the registry
/// boundary, and decision-form (`deadlines`) cells on chain/spider
/// `optimal` run the genuinely allocation-free counting constructions on
/// warm per-thread scratch.  Makespan-form (`tasks`) cells still compute
/// placements internally — the makespan *is* the construction's output —
/// they just skip returning them.

namespace mst::scenario {

/// Execution knobs.
struct RunOptions {
  /// Worker threads; 0 = `std::thread::hardware_concurrency()`.
  unsigned threads = 1;
  /// Materialize schedules.  Off (default) is the count/makespan-only fast
  /// path; on enables `check`.
  bool materialize = false;
  /// With `materialize`, run `api::check_feasibility` on every result and
  /// report violations through `CellOutcome::error`.
  bool check = false;
  /// Timing repetitions per cell; `wall_ms` keeps the best (smallest) run.
  int reps = 1;
  /// Decision-form search cap (`SolveOptions::cap`).
  std::size_t cap = 1u << 20;
  /// Deterministic grid partition for distributed sweeps: this run executes
  /// exactly the cells whose canonical index `i` satisfies
  /// `i % shard_count == shard_index`.  The partition is applied *before*
  /// batching, so per-cell seed derivation and same-platform batching are
  /// unchanged within a shard, and the union of the N shard runs is
  /// provably the full grid (every index lands in exactly one residue
  /// class).  The default `0/1` is the whole grid — the historical
  /// single-process behaviour.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Crash-safe resume: when nonempty, the runner opens (or creates)
  /// `journal_dir/shard-<i>-of-<N>.mstj` (scenario/journal.hpp), replays
  /// every completed cell recorded there — skipping its solve entirely;
  /// completed cells never even enter a batch — and appends one fsync'd,
  /// checksummed record per newly finished cell.  A SIGKILL'd run resumes
  /// from its last completed cell; a torn final record is truncated away.
  /// Replayed per-cell metric snapshots are absorbed back into `metrics`,
  /// so the aggregate matches the uninterrupted run's.  The journals of
  /// all N shards reassemble into the single-process bytes via
  /// `scenario::merge_journals` (`mstctl --mode=merge`).
  std::string journal_dir;
  /// Progress callback: invoked once up front with
  /// `(replayed, shard_total, false)` — announcing the shard's cell count
  /// (and how many of them the journal already completed, 0 on a fresh
  /// run) before any cell runs, so consumers can size progress bars
  /// without waiting for the first completion, and progress never appears
  /// to jump backwards after a resume — then once per newly finished cell
  /// with (cells done so far incl. replayed, shard total, whether that
  /// cell failed).  Calls are serialized under a mutex (the pool's one
  /// shared-state channel — see ProgressSink in runner.cpp, whose counters
  /// are compiler-checked `MST_GUARDED_BY` under the Clang CI job), and
  /// `done` is monotone replayed, replayed+1 .. total; completion *order*
  /// still depends on thread scheduling, so a callback that cares about
  /// determinism should key on counts, never on which cell landed.
  std::function<void(std::size_t done, std::size_t total, bool failed)> on_progress;
  /// Optional, borrowed metrics sink for the whole sweep.  Each cell solves
  /// against its own local registry (so per-cell snapshots exist in
  /// `CellOutcome::metrics`) and merges into this one when it finishes;
  /// merging is commutative, so the aggregate — like every other runner
  /// output — is byte-identical at any thread count.  Wall-time-class
  /// entries (e.g. `scenario.cell.wall_us`) are segregated at serialization
  /// time, mirroring the reporters' `--timing` convention.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One cell's result row.
struct CellOutcome {
  Cell cell;
  std::size_t tasks = 0;
  Time makespan = 0;
  Time lower_bound = 0;   ///< makespan form only (0 otherwise)
  bool optimal = false;
  double throughput = 0;  ///< tasks/makespan (solve/stream) or tasks/deadline (within)
  double wall_ms = 0;     ///< best-of-`reps` wall time of the solve call
  std::string error;      ///< nonempty: the cell failed (dispatch/feasibility)

  /// Streaming-mode metrics (`cell.mode == CellMode::kStream` rows only).
  /// Negative doubles are the "not applicable" sentinel — the reporters
  /// render them as empty cells, never as `inf`/`nan`.
  double mean_latency = -1;      ///< mean per-task (completion - release)
  std::size_t peak_backlog = 0;  ///< max tasks arrived but not yet emitted
  double regret = -1;            ///< online/offline makespan ratio (>= 1)

  /// Per-cell metric snapshot (sorted by name, wall-time entries included —
  /// consumers filter by `DeterminismClass`).  Empty unless
  /// `RunOptions::metrics` was set.
  std::vector<obs::MetricSample> metrics;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Executes this shard's cells.  With the default `shard_count == 1` the
/// returned vector is index-aligned with the input (the historical
/// contract); with N shards it holds exactly the owned cells' outcomes in
/// ascending canonical-index order — the rows of this shard's report.
/// Journal metrics (when `RunOptions::metrics` is set):
/// `scenario.journal.appended` / `.replayed` / `.skipped` / `.torn`, plus
/// the wall-time-class `scenario.journal.syncs` (fsyncs the appends made).
/// Throws `std::invalid_argument` on an out-of-range shard and
/// `std::runtime_error` when a journal belongs to a different sweep.
std::vector<CellOutcome> run_cells(const std::vector<Cell>& cells, const RunOptions& options,
                                   const api::Registry& registry = api::registry());

/// `expand` + `run_cells`.
std::vector<CellOutcome> run_sweep(const SweepSpec& spec, const RunOptions& options,
                                   const api::Registry& registry = api::registry());

}  // namespace mst::scenario
