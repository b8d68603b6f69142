// mstctl — command-line front end to the library.
//
//   mstctl --mode=list      [--kind=chain|fork|spider|tree]
//   mstctl --mode=solve     --platform=FILE --algo=NAME|all --tasks=N [--seed=S]
//                           [--cap=K] [--workload=FILE] [--metrics-out=FILE]
//                           [--trace-out=FILE]
//   mstctl --mode=max-tasks --platform=FILE --deadline=T
//                           [--algo=NAME|all] [--cap=K] [--seed=S] [--fast]
//                           [--workload=FILE]
//   mstctl --mode=count     --platform=FILE --tlim=T   # bare number (script-friendly)
//   mstctl --mode=stream    --platform=FILE [--workload=FILE | --tasks=N]
//                           [--algo=NAME|all] [--seed=S]
//                           [--metrics-out=FILE] [--trace-out=FILE]
//   mstctl --mode=schedule  --platform=FILE --tasks=N [--format=summary|gantt|svg|json|schedule]
//   mstctl --mode=sweep     --spec=FILE [--threads=N] [--out=csv|json]
//                           [--out-file=PATH] [--seed=S] [--cap=K]
//                           [--timing] [--check] [--reps=R]
//                           [--shard=i/N] [--journal=DIR]
//                           [--metrics-out=FILE] [--trace-out=FILE]
//   mstctl --mode=merge     --journal=DIR [--out=csv|json] [--out-file=PATH]
//                           [--timing]
//   mstctl --mode=validate  --schedule=FILE
//   mstctl --mode=rate      --platform=FILE
//   mstctl --mode=demo      [--dir=.]        # writes sample platform files
//
// Scheduling algorithms are resolved through the registry
// (mst/api/registry.hpp): `list` enumerates every registered
// (platform kind, algorithm) pair, `solve` dispatches the makespan form and
// `max-tasks` the decision form ("how many tasks fit in the window T?") by
// name.  Platform files use the text format of mst/platform/io.hpp (chain /
// fork / spider / tree) and are parsed into the typed `api::Platform`
// variant, so the header keyword of the file decides which algorithm family
// runs.  `--workload=FILE` loads a workload description
// (mst/workload/workload_io.hpp: task count plus optional per-task sizes
// and release dates); `solve` then schedules that workload (algorithms that
// do not support its features are skipped in `--algo=all` sweeps and
// rejected when named explicitly), and `max-tasks` draws its tasks from it
// as a finite pool.  `--seed` makes the randomized online policies
// reproducible.  Exit status is 0 on success, 1 on validation failure, 2 on
// usage errors.
//
// `sweep` runs a declarative scenario grid (mst/scenario/spec.hpp) through
// the parallel sweep runner and prints long-form CSV (default) or JSON.
// Output is byte-identical for a fixed spec seed at any --threads; --timing
// adds the (non-deterministic) wall_ms column, --check materializes every
// schedule and runs the feasibility checker on it.
//
// Distributed sweeps: `--shard=i/N` makes `sweep` execute only the cells
// whose canonical index is congruent to i mod N (per-cell seeds and
// same-platform batching within the shard are unchanged), and
// `--journal=DIR` gives the shard a crash-safe append-only journal — one
// fsync'd, checksummed record per completed cell — so a SIGKILL'd run
// resumes where it stopped, never recomputing completed cells.  `merge`
// reassembles the N shard journals into canonical grid order and emits
// CSV/JSON byte-identical to the single-process run's (README "Distributed
// sweeps").  Report files (--out-file, --metrics-out, --trace-out) are
// written atomically — temp file, then rename — so a crash mid-write never
// leaves a truncated report behind.
//
// `stream` runs the no-lookahead streaming driver (mst/sim/streaming.hpp):
// the workload's release dates arrive online, the policy never learns the
// task count, and the table reports per-task latency, peak master backlog
// and the regret against the exact offline optimum where one is registered.
// Only algorithms with the `streaming` capability qualify (`--algo=all`
// selects exactly those; see the workloads column of --mode=list).
//
// Observability (mst/obs/): `--metrics-out=FILE` writes the run's metric
// registry as JSON — counters/gauges/histograms whose values are
// deterministic, byte-identical at any --threads; wall-time-class entries
// are included only when --timing also asks for timing, mirroring the
// report column.  `--trace-out=FILE` writes a Chrome trace-event JSON file
// (open in https://ui.perfetto.dev or chrome://tracing): on solve/stream
// the sim-clock Gantt of the first selected algorithm's run — per-slave
// compute spans, per-link communication spans, master emissions — and on
// sweep a one-track-per-cell overview of the grid.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <type_traits>

#include "mst/mst.hpp"
#include "mst/scenario/journal.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

mst::api::Platform load_platform(const std::string& path) {
  try {
    return mst::api::parse_any_platform(slurp(path));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

/// `--workload=FILE`, when present.
std::optional<mst::Workload> load_workload(const mst::Args& args) {
  const std::string path = args.get("workload", "");
  if (path.empty()) return std::nullopt;
  try {
    return mst::parse_workload(slurp(path));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

/// Writes `text` to `path` atomically: the bytes land in `path + ".tmp"`
/// first and are renamed over the target (rename(2) is atomic on POSIX), so
/// a crash mid-write never leaves a truncated report behind — readers see
/// the old file or the new one, nothing in between.  Non-regular targets
/// (`--out-file=/dev/null`, a pipe) are written in place: renaming over a
/// device would replace it with a regular file.
void write_file_atomic(const std::string& path, const std::string& text) {
  std::error_code ec;
  const std::filesystem::file_status status = std::filesystem::status(path, ec);
  if (!ec && std::filesystem::exists(status) && !std::filesystem::is_regular_file(status)) {
    std::ofstream file(path);
    if (!file) throw std::invalid_argument("cannot write file: " + path);
    file << text;
    return;
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp);
    if (!file) throw std::invalid_argument("cannot write file: " + tmp);
    file << text;
    file.flush();
    if (!file) throw std::invalid_argument("cannot write file: " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::invalid_argument("cannot rename " + tmp + " over " + path + ": " +
                                ec.message());
  }
}

/// Observability sinks for `--metrics-out` / `--trace-out`.  Construct one
/// per mode invocation, point the library calls at `observation()`, then
/// `write()` the files; members stay disengaged when the flags are absent,
/// so un-instrumented runs carry no sinks at all.
struct ObsSinks {
  std::string metrics_path;
  std::string trace_path;
  std::optional<mst::obs::MetricsRegistry> metrics;
  std::optional<mst::obs::TraceSink> trace;

  explicit ObsSinks(const mst::Args& args)
      : metrics_path(args.get("metrics-out", "")), trace_path(args.get("trace-out", "")) {
    if (!metrics_path.empty()) metrics.emplace();
    if (!trace_path.empty()) trace.emplace();
  }

  [[nodiscard]] mst::obs::MetricsRegistry* metrics_ptr() {
    return metrics.has_value() ? &*metrics : nullptr;
  }
  [[nodiscard]] mst::obs::TraceSink* trace_ptr() {
    return trace.has_value() ? &*trace : nullptr;
  }
  [[nodiscard]] mst::obs::Observation observation() {
    return {metrics_ptr(), trace_ptr()};
  }

  /// Writes whichever files were requested (atomically — see
  /// write_file_atomic).  `include_wall_time` admits wall-time-class
  /// metrics into the JSON (mirroring --timing); the default output is
  /// deterministic.
  void write(bool include_wall_time = false) const {
    if (metrics.has_value()) {
      write_file_atomic(metrics_path, metrics->to_json(include_wall_time));
      std::cout << "wrote metrics to " << metrics_path << "\n";
    }
    if (trace.has_value()) {
      write_file_atomic(trace_path, trace->to_chrome_json());
      std::cout << "wrote trace to " << trace_path << "\n";
    }
  }
};

/// Per-call options from the shared flags (`--seed`, `--cap`).
mst::api::SolveOptions solve_options(const mst::Args& args, std::int64_t default_cap = 1 << 20) {
  mst::api::SolveOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t cap = args.get_int("cap", default_cap);
  if (cap < 1) throw std::invalid_argument("--cap must be >= 1");
  options.cap = static_cast<std::size_t>(cap);
  return options;
}

int run_list(const mst::Args& args) {
  using namespace mst;
  const std::string filter = args.get("kind", "");
  if (!filter.empty() && !api::platform_kind_from(filter)) {
    std::cerr << "unknown --kind=" << filter << " (expected chain|fork|spider|tree)\n";
    return 2;
  }
  Table table({"kind", "algorithm", "optimal", "workloads", "summary"});
  for (const api::AlgorithmInfo& info : api::registry().list()) {
    if (!filter.empty() && to_string(info.kind) != filter) continue;
    table.row()
        .cell(to_string(info.kind))
        .cell(info.name)
        .cell(info.optimal ? "yes" : "no")
        .cell(to_string(info.supports))
        .cell(info.summary + (info.exponential ? " [exponential]" : ""));
  }
  table.print(std::cout);
  return 0;
}

std::size_t task_count(const mst::Args& args) {
  const std::int64_t n = args.get_int("tasks", 10);
  if (n < 1) throw std::invalid_argument("--tasks must be >= 1");
  return static_cast<std::size_t>(n);
}

/// Resolves `--algo=NAME|all` against the registry, skipping exponential
/// entries in `all` sweeps when `skip_exponential` says the instance is too
/// big for them.
std::vector<mst::api::AlgorithmInfo> select_algorithms(const mst::Args& args,
                                                       mst::api::PlatformKind kind,
                                                       bool skip_exponential,
                                                       const char* skip_reason) {
  using namespace mst;
  const std::string algo = args.get("algo", "all");
  std::vector<api::AlgorithmInfo> selected;
  if (algo == "all") {
    for (const api::AlgorithmInfo& info : api::registry().list(kind)) {
      if (info.exponential && skip_exponential) {
        std::cout << "(skipping " << info.name << ": " << skip_reason << ")\n";
        continue;
      }
      selected.push_back(info);
    }
  } else {
    const api::AlgorithmInfo* info = api::registry().info(kind, algo);
    if (info == nullptr) {
      throw std::invalid_argument("no algorithm '" + algo + "' for " + to_string(kind) +
                                  " platforms; see --mode=list");
    }
    selected.push_back(*info);
  }
  return selected;
}

/// In `--algo=all` sweeps, drops entries that cannot handle the workload's
/// features (a named algorithm is still rejected loudly by the registry).
void skip_unsupported(std::vector<mst::api::AlgorithmInfo>& selected,
                      const mst::Workload& workload) {
  using namespace mst;
  if (!workload.features().any()) return;
  std::erase_if(selected, [&](const api::AlgorithmInfo& info) {
    if (workload.features().subset_of(info.supports)) return false;
    std::cout << "(skipping " << info.name << ": no support for "
              << to_string(workload.features()) << " workloads)\n";
    return true;
  });
}

int run_solve(const mst::Args& args) {
  using namespace mst;
  const api::Platform platform = load_platform(args.get("platform", ""));
  const api::PlatformKind kind = api::kind_of(platform);
  const std::optional<Workload> workload = load_workload(args);
  const std::size_t n = workload ? workload->count() : task_count(args);
  ObsSinks obs(args);
  api::SolveOptions options = solve_options(args);
  options.metrics = obs.metrics_ptr();

  std::cout << "platform : " << api::describe(platform) << "\n";
  if (workload) {
    std::cout << "workload : " << workload->describe() << "\n\n";
  } else {
    std::cout << "tasks    : " << n << "\n\n";
  }

  // Brute force is exponential in n; only sweep it on small instances.
  std::vector<api::AlgorithmInfo> selected =
      select_algorithms(args, kind, n > 10, "exponential, tasks > 10");
  if (workload && args.get("algo", "all") == "all") skip_unsupported(selected, *workload);

  Table table({"algorithm", "optimal", "makespan", "lower bound", "throughput", "feasible"});
  bool all_feasible = true;
  bool traced = false;
  for (const api::AlgorithmInfo& info : selected) {
    const api::SolveResult result =
        workload ? api::registry().solve(platform, info.name, *workload, options)
                 : api::registry().solve(platform, info.name, n, options);
    const FeasibilityReport report = api::check_feasibility(result);
    all_feasible = all_feasible && report.ok();
    // The trace carries one Gantt: the first selected algorithm's schedule,
    // replayed operationally on the tree embedding (metrics keep counting
    // across the whole table).
    if (!traced && obs.trace.has_value() &&
        !std::holds_alternative<std::monostate>(result.schedule)) {
      api::replay_schedule(result, obs.observation());
      traced = true;
    }
    table.row()
        .cell(result.algorithm)
        .cell(result.optimal ? "yes" : "no")
        .cell(result.makespan)
        .cell(result.lower_bound)
        .cell(result.throughput(), 4)
        .cell(report.ok() ? "yes" : report.summary());
  }
  table.print(std::cout);
  obs.write();
  return all_feasible ? 0 : 1;
}

int run_max_tasks(const mst::Args& args) {
  using namespace mst;
  const api::Platform platform = load_platform(args.get("platform", ""));
  const api::PlatformKind kind = api::kind_of(platform);
  const Time deadline = args.get_int("deadline", args.get_int("tlim", 100));
  api::SolveOptions options = solve_options(args);
  // `--fast` takes the count/makespan-only path: no placement vectors are
  // materialized and no feasibility check runs.
  options.materialize = !args.has("fast");
  const std::optional<Workload> workload = load_workload(args);
  if (workload) options.workload = std::make_shared<const Workload>(*workload);

  std::cout << "platform : " << api::describe(platform) << "\n";
  std::cout << "deadline : " << deadline << "\n";
  if (workload) std::cout << "workload : " << workload->describe() << "\n";
  std::cout << "\n";

  std::vector<api::AlgorithmInfo> selected;
  if (args.has("algo")) {
    selected = select_algorithms(args, kind, true, "exponential; pass --algo=brute-force");
    if (workload && args.get("algo", "") == "all") skip_unsupported(selected, *workload);
  } else {
    // Default: the exact algorithm (or the strongest heuristic for trees);
    // when it cannot handle the workload's features, the first
    // non-exponential entry that can.
    std::string name = api::default_algorithm(kind);
    if (workload && !api::registry().supports(kind, name, workload->features())) {
      for (const api::AlgorithmInfo& info : api::registry().list(kind)) {
        if (!info.exponential && workload->features().subset_of(info.supports)) {
          name = info.name;
          break;
        }
      }
    }
    selected.push_back(*api::registry().info(kind, name));
  }

  Table table({"algorithm", "optimal", "tasks", "makespan", "tasks/T", "feasible"});
  bool all_feasible = true;
  for (const api::AlgorithmInfo& info : selected) {
    api::SolveOptions algo_options = options;
    // An exhaustive oracle re-searches every count up to the cap; an
    // uncapped window would hang.  Mirror the solve-mode small-instance
    // rule unless the user sized the cap themselves.
    if (info.exponential && !args.has("cap") && algo_options.cap > 10) {
      std::cout << "(" << info.name << ": exponential, capping the count at 10; "
                   "pass --cap to raise)\n";
      algo_options.cap = 10;
    }
    const api::DecisionResult result =
        api::registry().solve_within(platform, info.name, deadline, algo_options);
    std::string feasible = "unchecked";
    if (options.materialize) {
      const FeasibilityReport report = api::check_feasibility(result);
      all_feasible = all_feasible && report.ok();
      feasible = report.ok() ? "yes" : report.summary();
    }
    table.row()
        .cell(result.algorithm)
        .cell(result.optimal ? "yes" : "no")
        .cell(result.tasks)
        .cell(result.makespan)
        .cell(result.throughput(), 4)
        .cell(feasible);
  }
  table.print(std::cout);
  return all_feasible ? 0 : 1;
}

/// --mode=stream: the no-lookahead driver over the workload's arrival
/// stream.  Defaults: `--tasks=N` identical tasks all released at 0 (the
/// equivalence baseline), every streaming-capable algorithm of the kind.
int run_stream_mode(const mst::Args& args) {
  using namespace mst;
  const api::Platform platform = load_platform(args.get("platform", ""));
  const api::PlatformKind kind = api::kind_of(platform);
  const std::optional<Workload> loaded = load_workload(args);
  const Workload workload = loaded ? *loaded : Workload::identical(task_count(args));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  WorkloadFeatures requested = workload.features();
  requested.streaming = true;
  std::vector<api::AlgorithmInfo> selected;
  const std::string algo = args.get("algo", "all");
  if (algo == "all") {
    for (const api::AlgorithmInfo& info : api::registry().list(kind)) {
      if (requested.subset_of(info.supports)) selected.push_back(info);
    }
    if (selected.empty()) {
      std::cerr << "no streaming-capable algorithm for " << to_string(kind)
                << " platforms supports " << to_string(workload.features())
                << " workloads (see --mode=list)\n";
      return 2;
    }
  } else {
    const api::AlgorithmInfo* info = api::registry().info(kind, algo);
    if (info == nullptr) {
      throw std::invalid_argument("no algorithm '" + algo + "' for " + to_string(kind) +
                                  " platforms; see --mode=list");
    }
    selected.push_back(*info);  // run_stream rejects non-streaming entries loudly
  }

  std::cout << "platform : " << api::describe(platform) << "\n";
  std::cout << "workload : " << workload.describe() << " (arrivals stream online)\n\n";

  ObsSinks obs(args);
  Table table({"algorithm", "tasks", "makespan", "mean latency", "max latency", "backlog",
               "offline", "regret"});
  bool first = true;
  for (const api::AlgorithmInfo& info : selected) {
    // Metrics aggregate over the whole table; the trace carries the first
    // selected algorithm's run only — one Gantt per file.
    const obs::Observation observation{obs.metrics_ptr(),
                                       first ? obs.trace_ptr() : nullptr};
    first = false;
    const api::StreamOutcome result = api::run_stream(platform, info.name, workload, seed,
                                                      api::registry(), /*attach_reference=*/true,
                                                      observation);
    Table& row = table.row();
    row.cell(result.algorithm)
        .cell(result.tasks)
        .cell(result.makespan)
        .cell(result.metrics.mean_latency, 2)
        .cell(result.metrics.max_latency)
        .cell(result.metrics.peak_backlog);
    if (result.offline_makespan > 0) {
      row.cell(result.offline_makespan);
    } else {
      row.cell("-");
    }
    if (result.regret >= 0) {
      row.cell(result.regret, 4);
    } else {
      row.cell("-");
    }
  }
  table.print(std::cout);
  obs.write();
  return 0;
}

// The legacy count mode keeps its bare-number output contract (scripts do
// `count=$(mstctl --mode=count ...)`), including the old --tlim/--cap
// defaults, but now answers for every platform kind through the registry.
int run_count(const mst::Args& args) {
  using namespace mst;
  const api::Platform platform = load_platform(args.get("platform", ""));
  const Time deadline = args.get_int("tlim", args.get_int("deadline", 100));
  const api::SolveOptions options = solve_options(args, /*default_cap=*/100000);
  const std::string algo = args.get("algo", api::default_algorithm(api::kind_of(platform)));
  std::cout << api::registry().max_tasks(platform, algo, deadline, options) << "\n";
  return 0;
}

/// Tree branch of --mode=schedule: trees produce dispatch plans, not
/// link-level schedules, so the rendering is the operational replay
/// timeline of `sim::simulate_dispatch` (dispatch_render.hpp).
int run_schedule_tree(const mst::Args& args, const mst::api::Platform& platform) {
  using namespace mst;
  const std::string format = args.get("format", "summary");
  if (format != "summary" && format != "gantt") {
    std::cerr << "tree dispatch plans render as --format=summary|gantt "
                 "(no link-level timing for svg/json/schedule)\n";
    return 2;
  }
  const std::size_t n = task_count(args);
  const std::string algo = args.get("algo", api::default_algorithm(api::PlatformKind::kTree));
  const api::SolveResult result =
      api::registry().solve(platform, algo, n, solve_options(args));
  const auto& dispatch = std::get<api::TreeDispatch>(result.schedule);
  const sim::SimResult replay = sim::simulate_dispatch(dispatch.tree, dispatch.dests);
  const Time scale = std::max<Time>(1, replay.makespan / 100);
  if (format == "summary") {
    std::cout << "platform : " << api::describe(platform) << "\n";
    std::cout << "tasks    : " << n << "\n";
    std::cout << "algorithm: " << result.algorithm << "\n";
    std::cout << "makespan : " << result.makespan << " (replay " << replay.makespan << ")\n";
    for (NodeId v = 1; v < dispatch.tree.size(); ++v) {
      std::cout << "  node " << v << ": " << replay.tasks_per_node[v] << " tasks\n";
    }
    std::cout << "steady rate    : " << tree_steady_state_rate(dispatch.tree)
              << " tasks/unit\n\n";
  }
  std::cout << sim::render_dispatch(dispatch.tree, replay, scale);
  // Eager forwarding may only move work earlier: the replayed makespan must
  // never exceed what the plan reported.
  if (replay.makespan > result.makespan) {
    std::cerr << "replay invariant violated: plan reports makespan " << result.makespan
              << " but the dispatch replay needs " << replay.makespan << "\n";
    return 1;
  }
  return 0;
}

int run_schedule(const mst::Args& args) {
  using namespace mst;
  api::Platform platform = load_platform(args.get("platform", ""));
  if (api::kind_of(platform) == api::PlatformKind::kTree) {
    return run_schedule_tree(args, platform);
  }
  // Forks render through their spider embedding (identical platform, one
  // single-node leg per slave), so one spider code path serves both.
  if (const auto* fork = std::get_if<Fork>(&platform)) {
    platform = Spider::from_fork(*fork);
  }
  const std::size_t n = task_count(args);
  const api::SolveResult result = api::registry().solve(platform, "optimal", n);
  const std::string format = args.get("format", "summary");

  return std::visit(
      [&](const auto& schedule) -> int {
        using S = std::decay_t<decltype(schedule)>;
        if constexpr (std::is_same_v<S, ChainSchedule> || std::is_same_v<S, SpiderSchedule>) {
          if (format == "summary") {
            std::cout << "platform : " << api::describe(platform) << "\n";
            std::cout << "tasks    : " << n << "\n";
            std::cout << "makespan : " << result.makespan << " (optimal)\n";
            if constexpr (std::is_same_v<S, ChainSchedule>) {
              const auto counts = schedule.tasks_per_proc();
              for (std::size_t i = 0; i < counts.size(); ++i) {
                std::cout << "  proc " << i << ": " << counts[i] << " tasks\n";
              }
              std::cout << "steady rate    : " << chain_steady_state_rate(schedule.chain)
                        << " tasks/unit\n";
            } else {
              const auto counts = schedule.tasks_per_leg();
              for (std::size_t l = 0; l < counts.size(); ++l) {
                std::cout << "  leg " << l << ": " << counts[l] << " tasks\n";
              }
              std::cout << "steady rate    : " << spider_steady_state_rate(schedule.spider)
                        << " tasks/unit\n";
            }
            std::cout << "lower bound    : " << result.lower_bound << "\n";
            std::cout << "forward greedy : "
                      << api::registry().solve(platform, "forward-greedy", n).makespan << "\n";
            std::cout << "round robin    : "
                      << api::registry().solve(platform, "round-robin", n).makespan << "\n";
          } else if (format == "gantt") {
            const Time scale = std::max<Time>(1, schedule.makespan() / 100);
            std::cout << render_gantt(schedule, scale);
          } else if (format == "svg") {
            std::cout << render_svg(schedule);
          } else if (format == "json") {
            std::cout << to_json(schedule) << "\n";
          } else if (format == "schedule") {
            std::cout << write_schedule(schedule);
          } else {
            std::cerr << "unknown --format=" << format << "\n";
            return 2;
          }
          return 0;
        } else {
          std::cerr << "--mode=schedule expects a chain/fork/spider optimal schedule\n";
          return 2;
        }
      },
      result.schedule);
}

/// Shared tail of `sweep` and `merge`: renders the outcome rows with the
/// requested reporter and writes them to stdout or atomically to
/// `--out-file`.  Failed cells become exit status 1, so both entry points
/// gate CI the same way.  Byte-identity of the two paths is the tentpole
/// contract: merged shard journals go through exactly this code.
int emit_report(const std::vector<mst::scenario::CellOutcome>& outcomes, const mst::Args& args,
                const char* label) {
  using namespace mst;
  scenario::ReportOptions report;
  report.timing = args.has("timing");
  const std::string out = args.get("out", "csv");
  std::string text;
  if (out == "csv") {
    text = scenario::to_csv(outcomes, report);
  } else if (out == "json") {
    text = scenario::to_json(outcomes, report);
  } else {
    std::cerr << "unknown --out=" << out << " (expected csv|json)\n";
    return 2;
  }

  const std::string out_file = args.get("out-file", "");
  if (out_file.empty()) {
    std::cout << text;
  } else {
    write_file_atomic(out_file, text);
    std::cout << "wrote " << outcomes.size() << " rows to " << out_file << "\n";
  }

  std::size_t failed = 0;
  for (const scenario::CellOutcome& outcome : outcomes) {
    if (!outcome.ok()) ++failed;
  }
  if (failed > 0) {
    std::cerr << label << ": " << failed << " of " << outcomes.size() << " cells failed\n";
    return 1;
  }
  return 0;
}

/// `--shard=i/N` into RunOptions; anything malformed is a usage error.
void parse_shard(const std::string& shard, mst::scenario::RunOptions& run) {
  const auto fail = [&] {
    throw std::invalid_argument("--shard=" + shard +
                                ": expected i/N with 0 <= i < N (e.g. --shard=0/4)");
  };
  const std::size_t slash = shard.find('/');
  if (slash == 0 || slash == std::string::npos || slash + 1 == shard.size()) fail();
  std::size_t index_end = 0;
  std::size_t count_end = 0;
  unsigned long index = 0;
  unsigned long count = 0;
  try {
    index = std::stoul(shard.substr(0, slash), &index_end);
    count = std::stoul(shard.substr(slash + 1), &count_end);
  } catch (const std::exception&) {
    fail();
  }
  if (index_end != slash || count_end != shard.size() - slash - 1) fail();
  if (count == 0 || index >= count) fail();
  run.shard_index = index;
  run.shard_count = count;
}

int run_sweep(const mst::Args& args) {
  using namespace mst;
  const std::string spec_path = args.get("spec", "");
  if (spec_path.empty()) {
    std::cerr << "--mode=sweep needs --spec=FILE (see tests/data/specs/)\n";
    return 2;
  }
  scenario::SweepSpec spec;
  try {
    spec = scenario::parse_spec(slurp(spec_path));
  } catch (const std::invalid_argument& e) {
    std::cerr << spec_path << ": " << e.what() << "\n";
    return 2;
  }
  if (args.has("seed")) spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  scenario::RunOptions run;
  const std::int64_t threads = args.get_int("threads", 1);
  if (threads < 0) throw std::invalid_argument("--threads must be >= 0 (0 = all cores)");
  run.threads = static_cast<unsigned>(threads);
  run.check = args.has("check");
  run.materialize = run.check;
  run.reps = static_cast<int>(args.get_int("reps", 1));
  const std::int64_t cap = args.get_int("cap", 1 << 20);
  if (cap < 1) throw std::invalid_argument("--cap must be >= 1");
  run.cap = static_cast<std::size_t>(cap);
  const std::string shard = args.get("shard", "");
  if (!shard.empty()) parse_shard(shard, run);
  run.journal_dir = args.get("journal", "");

  ObsSinks obs(args);
  run.metrics = obs.metrics_ptr();

  const std::vector<scenario::CellOutcome> outcomes = scenario::run_sweep(spec, run);

  if (obs.trace.has_value()) scenario::trace_outcomes(outcomes, *obs.trace);
  // Wall-time-class metrics follow the --timing convention, exactly like
  // the wall_ms report column: the default metrics file is deterministic.
  obs.write(/*include_wall_time=*/args.has("timing"));

  return emit_report(outcomes, args, "sweep");
}

/// --mode=merge: reassembles the per-shard journals of a distributed sweep
/// (`--journal=DIR`, the directory the shard runs appended into) into
/// canonical grid order and emits the report through exactly the sweep code
/// path — byte-identical CSV/JSON to the single-process run.  Incomplete
/// coverage (a shard missing, a cell never journaled) is a hard error with
/// exit 1: resume the incomplete shards, then merge again.
int run_merge(const mst::Args& args) {
  using namespace mst;
  const std::string dir = args.get("journal", "");
  if (dir.empty()) {
    std::cerr << "--mode=merge needs --journal=DIR (the shard runs' --journal directory)\n";
    return 2;
  }
  std::vector<scenario::CellOutcome> outcomes;
  try {
    outcomes = scenario::merge_journals(dir);
  } catch (const std::exception& e) {
    std::cerr << "merge: " << e.what() << "\n";
    return 1;
  }
  return emit_report(outcomes, args, "merge");
}

int run_validate(const mst::Args& args) {
  using namespace mst;
  const std::string text = slurp(args.get("schedule", ""));
  // Dispatch on the header keyword, read by the lexer parse_*_schedule uses.
  const std::string_view kind = Lexer(text, "schedule").peek("schedule kind");
  FeasibilityReport report;
  Time analytic_makespan = 0;
  sim::ReplayResult replayed;
  if (kind == "chain_schedule") {
    const ChainSchedule s = parse_chain_schedule(text);
    report = check_feasibility(s);
    analytic_makespan = s.makespan();
    replayed = sim::replay(s);
  } else if (kind == "spider_schedule") {
    const SpiderSchedule s = parse_spider_schedule(text);
    report = check_feasibility(s);
    analytic_makespan = s.makespan();
    replayed = sim::replay(s);
  } else {
    std::cerr << "unknown schedule kind '" << kind << "'\n";
    return 2;
  }
  std::cout << "analytic : " << report.summary() << "\n";
  std::cout << "replay   : " << (replayed.ok ? "feasible" : "conflicts") << "\n";
  std::cout << "makespan : " << analytic_makespan << "\n";
  return report.ok() && replayed.ok ? 0 : 1;
}

int run_rate(const mst::Args& args) {
  using namespace mst;
  const api::Platform platform = load_platform(args.get("platform", ""));
  if (const auto* chain = std::get_if<Chain>(&platform)) {
    std::cout << "steady-state rate: " << chain_steady_state_rate(*chain) << " tasks/unit\n";
  } else if (const auto* fork = std::get_if<Fork>(&platform)) {
    std::cout << "steady-state rate: " << spider_steady_state_rate(Spider::from_fork(*fork))
              << " tasks/unit\n";
  } else if (const auto* spider = std::get_if<Spider>(&platform)) {
    std::cout << "steady-state rate: " << spider_steady_state_rate(*spider) << " tasks/unit\n";
    for (std::size_t l = 0; l < spider->num_legs(); ++l) {
      std::cout << "  leg " << l << " rate: " << chain_steady_state_rate(spider->leg(l)) << "\n";
    }
  } else {
    std::cout << "steady-state rate: " << tree_steady_state_rate(std::get<Tree>(platform))
              << " tasks/unit\n";
  }
  return 0;
}

int run_demo(const mst::Args& args) {
  using namespace mst;
  const std::string dir = args.get("dir", ".");
  const std::string spider_path = dir + "/demo_platform.txt";
  const Spider demo{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  std::ofstream out(spider_path);
  out << "# demo: the paper's Fig 2 chain plus a leaf pool\n" << write_spider(demo);
  std::cout << "wrote " << spider_path << "\n";

  const std::string tree_path = dir + "/demo_tree.txt";
  Tree tree;
  const NodeId trunk = tree.add_node(0, {2, 3});
  tree.add_node(trunk, {1, 2});
  tree.add_node(trunk, {2, 4});
  tree.add_node(0, {3, 2});
  std::ofstream tree_out(tree_path);
  tree_out << "# demo: a 4-slave tree with a branching trunk\n" << write_tree(tree);
  std::cout << "wrote " << tree_path << "\n";

  const std::string workload_path = dir + "/demo_workload.txt";
  const Workload staggered = Workload::released({0, 0, 4, 8, 12, 16});
  std::ofstream workload_out(workload_path);
  workload_out << "# demo: six tasks arriving in a staggered stream\n"
               << write_workload(staggered);
  std::cout << "wrote " << workload_path << "\n";

  std::cout << "try: mstctl --mode=solve --platform=" << spider_path << " --tasks=8\n";
  std::cout << "try: mstctl --mode=max-tasks --platform=" << tree_path << " --deadline=40\n";
  std::cout << "try: mstctl --mode=solve --platform=" << spider_path
            << " --workload=" << workload_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const mst::Args args(argc, argv);
    const std::string mode = args.get("mode", "schedule");
    if (mode == "list") return run_list(args);
    if (mode == "solve") return run_solve(args);
    if (mode == "max-tasks") return run_max_tasks(args);
    if (mode == "count") return run_count(args);
    if (mode == "stream") return run_stream_mode(args);
    if (mode == "schedule") return run_schedule(args);
    if (mode == "sweep") return run_sweep(args);
    if (mode == "merge") return run_merge(args);
    if (mode == "validate") return run_validate(args);
    if (mode == "rate") return run_rate(args);
    if (mode == "demo") return run_demo(args);
    std::cerr << "unknown --mode=" << mode
              << " (expected list|solve|max-tasks|count|stream|schedule|sweep|merge|validate|"
                 "rate|demo)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mstctl: " << e.what() << "\n";
    return 2;
  }
}
