#include <sys/resource.h>

#include <algorithm>
#include <utility>

#include "bench.hpp"
#include "mst/common/stats.hpp"

namespace mstbench {

namespace {

using mst::scenario::Cell;
using mst::scenario::CellMode;

/// Set-ups before the warm-up pass, and again before every measured pass:
/// spread over the whole run, so a moment of load on the machine moves the
/// `setup_s` median little.
constexpr int kSetupsPerRound = 4;
/// Measured sweep passes per run, at least.
constexpr int kMinPasses = 3;

double quantile(const std::vector<double>& values, double q) {
  mst::Sample sample;
  for (double v : values) sample.add(v);
  return sample.quantile(q);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

Result run_end_to_end(const Options& options) {
  const Workload& workload = find_workload(options.workload);
  Result result;

  // Set-up: spec parse and expansion (platform and workload generation);
  // the first one also builds the process-wide registry.  The sweeps run on
  // the first grid; later ones are released outside the timed region.
  std::vector<double> setup;
  std::vector<Cell> grid;
  const auto set_up = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<Cell> built = build_grid(workload, options.seed);
      setup.push_back(seconds_since(start));
      if (grid.empty()) grid = std::move(built);
    }
  };
  set_up();

  // Untimed warm-up pass: fills caches and scratch pools, and its output is
  // the reference every measured pass must reproduce byte for byte.  It
  // never journals, so on a journaled workload every measured pass checks
  // the merged shards against an unjournaled run.
  const SweepRun reference = run_sweep(workload, grid, "", nullptr);
  check_outcomes(reference.outcomes, result);
  result.csv_digest = digest(reference.csv);

  const int passes = std::max(kMinPasses, static_cast<int>(options.seconds / workload.pass_s));
  std::vector<double> cells_per_s;
  std::vector<std::vector<double>> wall_ms(grid.size());  // per cell, one entry per pass
  for (int pass = 0; pass < passes; ++pass) {
    set_up();
    const std::string journal_dir = workload.shards > 1 ? fresh_dir(options, "journal") : "";
    const SweepRun run = run_sweep(workload, grid, journal_dir, nullptr);
    cells_per_s.push_back(static_cast<double>(grid.size()) / run.wall_s);
    for (std::size_t i = 0; i < grid.size(); ++i) wall_ms[i].push_back(run.outcomes[i].wall_ms);
    check_outcomes(run.outcomes, result);
    check_same_csv(run.csv, reference.csv, "measured pass vs warm-up pass", result);
  }

  result.metrics.push_back(summarize("setup_s", "s", setup));
  // Other processes share this machine; a pass they slow down measures
  // them, not the sweep.  So throughput is the best pass (the quartiles
  // show the rest) and a cell's latency its best pass, the runner's own
  // best-of-repetitions rule applied across passes.
  Metric throughput = summarize("cells_per_s", "cells/s", cells_per_s);
  throughput.value = quantile(cells_per_s, 1.0);
  result.metrics.push_back(throughput);

  // The percentiles are taken over the cells' best passes; the quartiles
  // show the spread of the same percentile taken pass by pass.
  const std::pair<const char*, CellMode> modes[] = {
      {"solve", CellMode::kSolve}, {"decide", CellMode::kWithin}, {"stream", CellMode::kStream}};
  for (const auto& [label, mode] : modes) {
    std::vector<double> best;
    std::vector<std::vector<double>> by_pass(cells_per_s.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].mode != mode) continue;
      best.push_back(quantile(wall_ms[i], 0.0));
      for (std::size_t p = 0; p < by_pass.size(); ++p) by_pass[p].push_back(wall_ms[i][p]);
    }
    if (best.empty()) continue;
    for (const double q : {0.5, 0.99}) {
      std::vector<double> per_pass;
      for (const std::vector<double>& values : by_pass) per_pass.push_back(quantile(values, q));
      const Metric spread = summarize("", "", per_pass);
      result.metrics.push_back({std::string(label) + (q == 0.5 ? "_p50_ms" : "_p99_ms"), "ms",
                                quantile(best, q), spread.q1, spread.q3, best.size()});
    }
  }
  result.metrics.push_back(single("peak_rss_mb", "MB", peak_rss_mb()));
  return result;
}

}  // namespace mstbench
