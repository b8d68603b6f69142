#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mst/obs/metrics.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/runner.hpp"
#include "workloads.hpp"

/// \file bench.hpp
/// Shared pieces of the two benchmark runs: the untraced end-to-end run
/// (`end_to_end.cpp`) and the single-threaded traced per-layer run
/// (`traced.cpp`).

namespace mstbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;       ///< measuring time of the end-to-end run
  std::string work_dir;      ///< journals go here; removed at exit
  std::string report_path;   ///< detailed JSON report; empty = none
  std::string trace_path;    ///< Chrome trace of the traced run; empty = none
};

/// One reported metric: `value` plus, where it has several samples, their
/// quartiles.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t samples = 1;
};

/// What a run prints: the output checks' verdict and the metrics.
struct Result {
  std::size_t attempted = 0;  ///< cell executions plus output comparisons
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< the first few failures, for the log
  std::vector<Metric> metrics;
  std::string csv_digest;  ///< FNV-1a of the deterministic CSV (timing off)

  [[nodiscard]] bool correct() const { return failed == 0; }
  void fail(const std::string& problem);
};

/// Median and quartiles of `samples` (linear interpolation).
Metric summarize(std::string name, std::string unit, const std::vector<double>& samples);
/// A metric with a single sample.
Metric single(std::string name, std::string unit, double value);

double seconds_since(std::chrono::steady_clock::time_point start);
std::string digest(const std::string& text);

/// One pass of the workload's sweep path, four workers: `run_cells` then
/// `to_csv`.  With a nonempty `journal_dir` (journaled workloads) the
/// shards run one after the other into that directory and
/// `merge_journals` reassembles them before the CSV is rendered.
struct SweepRun {
  std::vector<mst::scenario::CellOutcome> outcomes;  ///< canonical grid order
  std::string csv;
  double wall_s = 0;
};
SweepRun run_sweep(const Workload& workload, const std::vector<mst::scenario::Cell>& grid,
                   const std::string& journal_dir, mst::obs::MetricsRegistry* metrics);

/// "cell N (kind/algorithm)", for failure messages.
std::string cell_label(const mst::scenario::Cell& cell);

/// Output checks on one pass: every cell succeeded (the runner reports
/// feasibility violations as errors), optimal makespans respect their
/// lower bound, and makespan-form and streaming cells scheduled all tasks.
void check_outcomes(const std::vector<mst::scenario::CellOutcome>& outcomes, Result& result);

/// Counts the CSV lines where `actual` differs from `expected` as failures.
void check_same_csv(const std::string& actual, const std::string& expected, const char* what,
                    Result& result);

/// A fresh, empty directory under the work directory.
std::string fresh_dir(const Options& options, const std::string& name);

Result run_end_to_end(const Options& options);
Result run_traced(const Options& options);

/// Prints the human-readable table and, as the last line, the result JSON
/// (`correct`, `attempted`, `failed`, `metrics`); writes the report file.
void emit(const Options& options, bool traced, const Result& result);

}  // namespace mstbench
