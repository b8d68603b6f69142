#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "bench.hpp"
#include "mst/common/stats.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/report.hpp"

namespace mstbench {

using mst::scenario::CellMode;
using mst::scenario::CellOutcome;

void Result::fail(const std::string& problem) {
  ++failed;
  if (problems.size() < 8) problems.push_back(problem);
}

Metric summarize(std::string name, std::string unit, const std::vector<double>& samples) {
  mst::Sample sample;
  for (double v : samples) sample.add(v);
  return {std::move(name), std::move(unit), sample.median(), sample.quantile(0.25),
          sample.quantile(0.75), samples.size()};
}

Metric single(std::string name, std::string unit, double value) {
  return {std::move(name), std::move(unit), value, value, value, 1};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::string digest(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash));
  return out;
}

SweepRun run_sweep(const Workload& workload, const std::vector<mst::scenario::Cell>& grid,
                   const std::string& journal_dir, mst::obs::MetricsRegistry* metrics) {
  mst::scenario::RunOptions options = run_options(workload);
  options.metrics = metrics;
  SweepRun run;
  const auto start = std::chrono::steady_clock::now();
  if (journal_dir.empty()) {
    run.outcomes = mst::scenario::run_cells(grid, options);
  } else {
    options.journal_dir = journal_dir;
    options.shard_count = workload.shards;
    for (std::size_t shard = 0; shard < workload.shards; ++shard) {
      options.shard_index = shard;
      mst::scenario::run_cells(grid, options);
    }
    run.outcomes = mst::scenario::merge_journals(journal_dir);
  }
  run.csv = mst::scenario::to_csv(run.outcomes);
  run.wall_s = seconds_since(start);
  return run;
}

std::string cell_label(const mst::scenario::Cell& cell) {
  return "cell " + std::to_string(cell.index) + " (" + cell.kind + "/" + cell.algorithm + ")";
}

void check_outcomes(const std::vector<CellOutcome>& outcomes, Result& result) {
  for (const CellOutcome& out : outcomes) {
    ++result.attempted;
    std::string problem;
    if (!out.ok()) {
      problem = out.error;
    } else if (out.optimal && out.lower_bound > 0 && out.makespan < out.lower_bound) {
      problem = "makespan " + std::to_string(out.makespan) + " below lower bound " +
                std::to_string(out.lower_bound);
    } else if (out.cell.mode != CellMode::kWithin && out.tasks != out.cell.n) {
      problem = "scheduled " + std::to_string(out.tasks) + " of " + std::to_string(out.cell.n) +
                " tasks";
    }
    if (!problem.empty()) result.fail(cell_label(out.cell) + ": " + problem);
  }
}

void check_same_csv(const std::string& actual, const std::string& expected, const char* what,
                    Result& result) {
  ++result.attempted;
  if (actual == expected) return;
  const auto lines = [](const std::string& text) {
    std::vector<std::string_view> out;
    std::string_view rest = text;
    while (!rest.empty()) {
      const std::size_t end = std::min(rest.find('\n'), rest.size());
      out.push_back(rest.substr(0, end));
      rest.remove_prefix(std::min(end + 1, rest.size()));
    }
    return out;
  };
  const std::vector<std::string_view> a = lines(actual);
  const std::vector<std::string_view> e = lines(expected);
  for (std::size_t i = 0; i < std::max(a.size(), e.size()); ++i) {
    if (i >= a.size() || i >= e.size() || a[i] != e[i]) {
      result.fail(std::string(what) + ": CSV line " + std::to_string(i + 1) + " differs");
    }
  }
}

std::string fresh_dir(const Options& options, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(options.work_dir) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace mstbench
