#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <string_view>
#include <type_traits>
#include <variant>

#include "bench.hpp"
#include "mst/api/registry.hpp"
#include "mst/api/stream.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/local_search.hpp"
#include "mst/heuristics/tree_schedule.hpp"
#include "mst/obs/trace.hpp"
#include "mst/scenario/journal.hpp"
#include "mst/scenario/report.hpp"
#include "mst/schedule/feasibility.hpp"

namespace mstbench {

namespace {

using Clock = std::chrono::steady_clock;
using mst::scenario::Cell;
using mst::scenario::CellMode;
using mst::scenario::CellOutcome;

constexpr std::size_t kNoCell = SIZE_MAX;

/// In-memory span log.  A span is one call into a layer's public function,
/// timed from the benchmark: its row names the layer and the call
/// (`core.spider`; the layer is the part before the first dot) and it
/// carries the index of the cell it served.  A disabled log only calls
/// through, which is how the untraced pass of the overhead ratio runs.
class Spans {
 public:
  struct Span {
    const char* row;
    std::size_t cell;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Room for `capacity` spans, so recording never reallocates mid-pass.
  void reserve(std::size_t capacity) { spans_.reserve(capacity); }

  /// Calls `call` and, when enabled, records its span (a call that throws
  /// leaves none; its cell reports the error).
  template <typename Call>
  decltype(auto) time(const char* row, std::size_t cell, Call&& call) {
    if (!enabled_) return call();
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      spans_.push_back({row, cell, start, Clock::now()});
    } else {
      auto result = call();
      spans_.push_back({row, cell, start, Clock::now()});
      return result;
    }
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Warm counting buffers for the direct core calls, one set for the whole
/// pass, as the runner keeps one per worker.
struct CoreScratch {
  mst::ChainCountScratch chain;
  mst::ForkCountScratch fork;
  mst::SpiderCountScratch spider;
};

/// The cell as the sweep runner executes it, one layer call at a time: the
/// registry (`api`) for makespan and decision cells, the streaming driver
/// (`sim`) for streaming cells, and the feasibility check (`schedule`) on
/// materialized results.
void solve_cell(const Cell& cell, const mst::scenario::RunOptions& run, Spans& spans,
                CellOutcome& out) {
  const mst::api::Registry& registry = mst::api::registry();
  mst::api::SolveOptions solve;
  solve.materialize = run.materialize;
  solve.seed = cell.seed;
  solve.cap = run.cap;
  if (cell.mode == CellMode::kWithin) solve.workload = cell.workload;
  const std::size_t i = cell.index;
  out.cell = cell;
  try {
    if (cell.mode == CellMode::kStream) {
      const mst::Workload tasks =
          cell.workload != nullptr ? *cell.workload : mst::Workload::identical(cell.n);
      mst::api::StreamOutcome result = spans.time("sim.stream", i, [&] {
        return mst::api::run_stream(*cell.platform, cell.algorithm, tasks, cell.seed, registry,
                                    /*attach_reference=*/false);
      });
      // The offline optimum behind the regret column: a registry solve, kept
      // out of the `api.solve` row (trees and released streams have none).
      spans.time("api.reference", i, [&] {
        mst::api::attach_offline_reference(result, *cell.platform, tasks, registry);
      });
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.throughput = result.throughput();
      out.mean_latency = result.metrics.mean_latency;
      out.peak_backlog = result.metrics.peak_backlog;
      out.regret = result.regret;
      return;
    }
    const auto check = [&](const auto& result) {
      if (!run.check || !run.materialize) return;
      const mst::FeasibilityReport report =
          spans.time("schedule.check", i, [&] { return mst::api::check_feasibility(result); });
      if (!report.ok()) out.error = report.summary();
    };
    if (cell.mode == CellMode::kSolve) {
      const mst::api::SolveResult result = spans.time("api.solve", i, [&] {
        return cell.workload != nullptr
                   ? registry.solve(*cell.platform, cell.algorithm, *cell.workload, solve)
                   : registry.solve(*cell.platform, cell.algorithm, cell.n, solve);
      });
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.lower_bound = result.lower_bound;
      out.optimal = result.optimal;
      out.throughput = result.throughput();
      check(result);
    } else {
      const mst::api::DecisionResult result = spans.time("api.decide", i, [&] {
        return registry.solve_within(*cell.platform, cell.algorithm, cell.deadline, solve);
      });
      out.tasks = result.tasks;
      out.makespan = result.makespan;
      out.optimal = result.optimal;
      out.throughput = result.throughput();
      check(result);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

/// Direct calls below the registry on the cell's own inputs: the exact
/// schedulers (`core`) on chain/fork/spider `optimal` cells, with the
/// schedule layer's checker on every schedule they build, and the tree
/// heuristics (`heuristics`).  Each must agree with the registry's answer.
void probe_below_registry(const Cell& cell, const mst::scenario::RunOptions& run,
                          const CellOutcome& out, Spans& spans, CoreScratch& scratch,
                          Result& result) {
  if (!out.ok() || cell.mode == CellMode::kStream) return;
  const std::size_t i = cell.index;
  const mst::Workload* tasks = cell.workload.get();
  const auto agree = [&](const char* what, auto core, auto registry) {
    ++result.attempted;
    if (core != registry) {
      result.fail(cell_label(cell) + ": " + what + " " + std::to_string(core) +
                  " below the registry, " + std::to_string(registry) + " through it");
    }
  };
  // One exact scheduler class on its platform: `schedule` for makespan
  // cells (then the checker), `count_within` for decision cells.
  const auto exact = [&](const char* row, const auto& platform, auto scheduler,
                         auto& count_scratch) {
    using Scheduler = decltype(scheduler);
    if (cell.mode == CellMode::kSolve) {
      const auto built = spans.time(row, i, [&] {
        return tasks != nullptr ? Scheduler::schedule(platform, *tasks)
                                : Scheduler::schedule(platform, cell.n);
      });
      const mst::FeasibilityReport report = spans.time("schedule.check", i, [&] {
        return tasks != nullptr ? mst::check_feasibility(built, *tasks)
                                : mst::check_feasibility(built);
      });
      ++result.attempted;
      if (!report.ok()) {
        result.fail(cell_label(cell) + ": core schedule infeasible: " + report.summary());
      }
      agree("makespan", built.makespan(), out.makespan);
    } else {
      const std::size_t count = spans.time("core.count", i, [&] {
        return tasks != nullptr ? Scheduler::count_within(platform, cell.deadline, *tasks,
                                                          run.cap, count_scratch)
                                : Scheduler::count_within(platform, cell.deadline, run.cap,
                                                          count_scratch);
      });
      agree("task count", count, out.tasks);
    }
  };

  const mst::api::Platform& platform = *cell.platform;
  if (cell.algorithm == "optimal") {
    if (const auto* chain = std::get_if<mst::Chain>(&platform)) {
      exact("core.chain", *chain, mst::ChainScheduler{}, scratch.chain);
    } else if (const auto* fork = std::get_if<mst::Fork>(&platform)) {
      exact("core.fork", *fork, mst::ForkScheduler{}, scratch.fork);
    } else if (const auto* spider = std::get_if<mst::Spider>(&platform)) {
      exact("core.spider", *spider, mst::SpiderScheduler{}, scratch.spider);
    }
    return;
  }
  const auto* tree = std::get_if<mst::Tree>(&platform);
  if (tree == nullptr || cell.mode != CellMode::kSolve) return;
  const std::size_t n = tasks != nullptr ? tasks->count() : cell.n;
  if (cell.algorithm == "spider-cover") {
    const mst::TreeScheduleResult plan =
        spans.time("heuristics.tree", i, [&] { return mst::schedule_tree_via_cover(*tree, n); });
    agree("makespan", plan.makespan, out.makespan);
  } else if (cell.algorithm == "local-search") {
    const mst::LocalSearchResult plan =
        spans.time("heuristics.tree", i, [&] { return mst::local_search_tree(*tree, n); });
    agree("makespan", plan.makespan, out.makespan);
  }
}

/// One single-threaded pass over the grid, every layer called from here;
/// then the report render and a journal of every outcome, replayed by
/// `merge_journals`.
struct Pass {
  std::vector<CellOutcome> outcomes;
  std::string csv;
  std::string merged_csv;
  double wall_s = 0;
};

Pass run_pass(const Workload& workload, const std::vector<Cell>& grid, const Options& options,
              Spans& spans, Result& result) {
  const mst::scenario::RunOptions run = run_options(workload);
  CoreScratch scratch;
  Pass pass;
  pass.outcomes.resize(grid.size());
  const std::string journal_dir = fresh_dir(options, "journal");
  const auto start = Clock::now();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    solve_cell(grid[i], run, spans, pass.outcomes[i]);
    probe_below_registry(grid[i], run, pass.outcomes[i], spans, scratch, result);
  }
  pass.csv = spans.time("report.render", kNoCell,
                        [&] { return mst::scenario::to_csv(pass.outcomes); });
  {
    mst::scenario::Journal journal(journal_dir, 0, 1, grid.size(),
                                   mst::scenario::grid_fingerprint(grid));
    for (std::size_t i = 0; i < grid.size(); ++i) {
      spans.time("journal.append", i, [&] { journal.append(pass.outcomes[i]); });
    }
  }
  const std::vector<CellOutcome> merged = spans.time(
      "journal.merge", kNoCell, [&] { return mst::scenario::merge_journals(journal_dir); });
  pass.wall_s = seconds_since(start);
  pass.merged_csv = mst::scenario::to_csv(merged);
  return pass;
}

/// Chrome trace-event JSON through the `obs` exporter: one track per layer,
/// timestamps in microseconds from the start of the run, the cell index as
/// each span's argument.
void write_trace(const Spans& spans, Clock::time_point origin, const std::string& path,
                 Result& result) {
  mst::obs::TraceSink sink(2 * spans.spans().size() + 1, 16, 32);
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - origin).count();
  };
  for (const Spans::Span& span : spans.spans()) {
    const std::string_view row = span.row;
    const mst::obs::TrackId track = sink.track(row.substr(0, row.find('.')));
    const mst::obs::NameId name = sink.name(row);
    sink.begin(track, name, micros(span.start),
               span.cell == kNoCell ? -1 : static_cast<std::int64_t>(span.cell));
    sink.end(track, name, micros(span.end));
  }
  ++result.attempted;
  if (sink.dropped() != 0) result.fail("trace export dropped " + std::to_string(sink.dropped()));
  std::ofstream out(path, std::ios::binary);
  out << sink.to_chrome_json();
  if (!out) result.fail("cannot write trace " + path);
}

std::int64_t counter_sum(const std::vector<mst::obs::MetricSample>& samples,
                         std::string_view prefix) {
  std::int64_t sum = 0;
  for (const mst::obs::MetricSample& sample : samples) {
    if (std::string_view(sample.name).substr(0, prefix.size()) == prefix) sum += sample.value;
  }
  return sum;
}

}  // namespace

Result run_traced(const Options& options) {
  const Workload& workload = find_workload(options.workload);
  Result result;
  const auto origin = Clock::now();

  Spans spans(true);
  std::vector<Cell> grid;
  spans.time("scenario.expand", kNoCell, [&] { grid = build_grid(workload, options.seed); });
  spans.reserve(8 * grid.size() + 16);

  // The same pass without spans before and after the traced one: the
  // traced wall over the faster untraced wall is the tracing overhead (the
  // first pass also pays for cold caches and first-touch allocations).
  Spans off(false);
  const Pass before = run_pass(workload, grid, options, off, result);
  const Pass pass = run_pass(workload, grid, options, spans, result);
  const Pass after = run_pass(workload, grid, options, off, result);
  check_outcomes(pass.outcomes, result);
  result.csv_digest = digest(pass.csv);
  check_same_csv(before.csv, pass.csv, "untraced pass vs traced pass", result);
  check_same_csv(after.csv, pass.csv, "untraced pass vs traced pass", result);
  check_same_csv(pass.merged_csv, pass.csv, "merged journal vs traced pass", result);

  // The real sweep path at four workers, twice, with the metrics registry:
  // its CSV must match the single-threaded traced pass and its
  // deterministic counters must repeat exactly.
  mst::obs::MetricsRegistry first;
  mst::obs::MetricsRegistry second;
  const bool journaled = workload.shards > 1;
  const SweepRun sweep_a =
      run_sweep(workload, grid, journaled ? fresh_dir(options, "sweep-a") : "", &first);
  const SweepRun sweep_b =
      run_sweep(workload, grid, journaled ? fresh_dir(options, "sweep-b") : "", &second);
  check_outcomes(sweep_a.outcomes, result);
  check_same_csv(sweep_a.csv, pass.csv, "4-thread sweep vs 1-thread traced pass", result);
  check_same_csv(sweep_b.csv, sweep_a.csv, "second 4-thread sweep vs first", result);
  ++result.attempted;
  if (first.to_json() != second.to_json()) {
    result.fail("deterministic counters differ between two runs of the same sweep");
  }
  const std::vector<mst::obs::MetricSample> counters = first.snapshot();

  if (!options.trace_path.empty()) write_trace(spans, origin, options.trace_path, result);

  // Per-layer rows.  `api.self.s` is, over the cells that also ran a direct
  // core call, the registry span minus the core span of the same cell.
  std::map<std::string_view, std::vector<double>> by_row;
  std::vector<double> api_s(grid.size(), 0.0);
  std::vector<double> core_s(grid.size(), 0.0);
  for (const Spans::Span& span : spans.spans()) {
    const double s = std::chrono::duration<double>(span.end - span.start).count();
    const std::string_view row = span.row;
    by_row[row].push_back(s);
    if (span.cell == kNoCell) continue;
    if (row.starts_with("api.")) api_s[span.cell] += s;
    if (row.starts_with("core.")) core_s[span.cell] += s;
  }
  const auto total = [&](std::string_view row) {
    double sum = 0;
    for (double s : by_row[row]) sum += s;
    return sum;
  };
  const auto calls = [&](std::string_view row) {
    return static_cast<double>(by_row[row].size());
  };
  const auto add = [&](std::string name, const char* unit, double value) {
    result.metrics.push_back(single(std::move(name), unit, value));
  };
  const auto timed_row = [&](const char* row, const char* calls_name) {
    const std::vector<double>& durations = by_row[row];
    add(std::string(row) + ".s", "s", total(row));
    add(calls_name, "count", calls(row));
    if (durations.empty()) {
      result.fail(std::string("no calls timed in layer row ") + row);
      return;
    }
    Metric p50 = summarize(std::string(row) + ".p50_us", "us", durations);
    p50.value *= 1e6;
    p50.q1 *= 1e6;
    p50.q3 *= 1e6;
    result.metrics.push_back(p50);
  };
  const auto count_of = [&](std::string_view prefix) {
    return static_cast<double>(counter_sum(counters, prefix));
  };

  add("scenario.expand.s", "s", total("scenario.expand"));
  add("scenario.expand.cells", "count", static_cast<double>(grid.size()));
  timed_row("api.solve", "api.solve.calls");
  timed_row("api.decide", "api.decide.calls");
  add("api.calls", "count", calls("api.solve") + calls("api.decide"));
  double api_self = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (core_s[i] > 0) api_self += api_s[i] - core_s[i];
  }
  add("api.self.s", "s", api_self);
  add("api.probe_solves", "count", count_of("api.decision.probe_solves"));
  add("api.dispatches", "count", count_of("api.solve.") + count_of("api.decide."));
  for (const char* row : {"core.chain", "core.fork", "core.spider", "core.count"}) {
    timed_row(row, (std::string(row) + ".calls").c_str());
  }
  add("core.calls", "count",
      calls("core.chain") + calls("core.fork") + calls("core.spider") + calls("core.count"));
  timed_row("schedule.check", "schedule.check.calls");
  timed_row("heuristics.tree", "heuristics.tree.calls");
  timed_row("sim.stream", "sim.stream.calls");
  add("sim.engine_events", "count", count_of("sim.engine.events"));
  add("sim.arrivals", "count", count_of("stream.arrivals"));
  add("report.render.s", "s", total("report.render"));
  add("report.bytes", "bytes", static_cast<double>(pass.csv.size()));
  timed_row("journal.append", "journal.appends");
  add("journal.merge.s", "s", total("journal.merge"));
  add("trace.overhead_ratio", "ratio", pass.wall_s / std::min(before.wall_s, after.wall_s));
  return result;
}

}  // namespace mstbench
