// Scenario engine: spec text round-trips, generator determinism, grid
// expansion, runner thread-count invariance and reporter shape.

#include <gtest/gtest.h>

#include <set>

#include "mst/api/platform_io.hpp"
#include "mst/platform/io.hpp"
#include "mst/scenario/generators.hpp"
#include "mst/scenario/report.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"
#include "support/spec_writer.hpp"

namespace mst::scenario {
namespace {

SweepSpec full_spec() {
  SweepSpec spec;
  spec.name = "roundtrip";
  spec.seed = 123456789;
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kTree};
  spec.classes = {PlatformClass::kUniform, PlatformClass::kAntiCorrelated};
  spec.sizes = {2, 5};
  spec.instances = 3;
  spec.lo = 2;
  spec.hi = 17;
  spec.min_leg_len = 2;
  spec.max_leg_len = 4;
  spec.depth_bias = 0.375;
  spec.tasks = {4, 16};
  spec.deadlines = {40, 90};
  spec.stream = true;
  WorkloadGen sized;
  sized.sizes = SizeDist{SizeDist::Kind::kUniform, 1, 4};
  WorkloadGen released;
  released.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, 3, 0};
  WorkloadGen arrivals;
  arrivals.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, 5, 0};
  spec.workloads = {WorkloadGen{}, sized, released, arrivals};
  spec.algorithms = {"optimal", "forward-greedy"};
  spec.platforms.push_back(Chain::from_vectors({2, 3}, {3, 5}));
  Tree tree;
  const NodeId trunk = tree.add_node(0, {2, 3});
  tree.add_node(trunk, {1, 2});
  spec.platforms.push_back(tree);
  return spec;
}

/// A small all-kinds grid that exercises both work axes.
SweepSpec small_grid() {
  SweepSpec spec;
  spec.name = "grid";
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

TEST(SweepSpecText, RoundTripsAllFields) {
  const SweepSpec spec = full_spec();
  const std::string text = oracle::write_spec(spec);
  const SweepSpec parsed = parse_spec(text);
  EXPECT_EQ(spec, parsed);
  // Idempotent: canonical text re-renders identically.
  EXPECT_EQ(text, oracle::write_spec(parsed));
}

TEST(SweepSpecText, RoundTripsDefaults) {
  SweepSpec spec;
  spec.kinds = {api::PlatformKind::kChain};
  spec.sizes = {2};
  spec.tasks = {4};
  EXPECT_EQ(spec, parse_spec(oracle::write_spec(spec)));
}

TEST(SweepSpecText, ParsesCommentsAndMissingKeys) {
  const SweepSpec spec = parse_spec(
      "# a comment\n"
      "sweep tiny\n"
      "kinds chain  # trailing comment\n"
      "sizes 3\n"
      "tasks 5\n");
  EXPECT_EQ(spec.name, "tiny");
  ASSERT_EQ(spec.kinds.size(), 1u);
  EXPECT_EQ(spec.kinds[0], api::PlatformKind::kChain);
  // Unset keys keep their defaults.
  EXPECT_EQ(spec.classes, std::vector<PlatformClass>{PlatformClass::kUniform});
  EXPECT_EQ(spec.seed, 1u);
}

TEST(SweepSpecText, WriteRejectsUnserializableNames) {
  SweepSpec spec = full_spec();
  spec.name = "two words";
  EXPECT_THROW(oracle::write_spec(spec), std::invalid_argument);
  spec.name = "hash#tag";
  EXPECT_THROW(oracle::write_spec(spec), std::invalid_argument);
  spec.name = "";
  EXPECT_THROW(oracle::write_spec(spec), std::invalid_argument);
}

TEST(SweepSpecText, RejectsGarbage) {
  EXPECT_THROW(parse_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_spec("grid x\n"), std::invalid_argument);              // no header
  EXPECT_THROW(parse_spec("sweep s\nbogus 1\n"), std::invalid_argument);    // unknown key
  EXPECT_THROW(parse_spec("sweep s\nkinds blob\n"), std::invalid_argument); // unknown kind
  EXPECT_THROW(parse_spec("sweep s\nseed -3\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("sweep s\nplatform\nchain 1\n1 2\n"),
               std::invalid_argument);  // unterminated block
}

// A platform block is read in place, so an error inside it names the line
// of the spec it is on, not the block's `end` or its line within the block.
TEST(SweepSpecText, BadPlatformBlockNamesItsSpecLine) {
  const std::string text =
      "sweep s\n"      // line 1
      "kinds chain\n"  // line 2
      "sizes 2\n"      // line 3
      "tasks 4\n"      // line 4
      "platform\n"     // line 5
      "chain 2\n"      // line 6
      "x 3\n"          // line 7
      "1 2\n"          // line 8
      "end\n";
  try {
    (void)parse_spec(text);
    FAIL() << "a bad platform block parsed";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("spec line 7: bad platform block: ", 0), 0u) << what;
    EXPECT_NE(what.find("line 7: expected link latency, got 'x'"), std::string::npos) << what;
  }
}

TEST(Generators, SameSeedSamePlatform) {
  for (api::PlatformKind kind : api::all_platform_kinds()) {
    PlatformSpec spec;
    spec.kind = kind;
    spec.cls = PlatformClass::kCorrelated;
    spec.size = 6;
    spec.depth_bias = 0.5;
    const api::Platform a = make_platform(spec, 99);
    const api::Platform b = make_platform(spec, 99);
    EXPECT_TRUE(a == b) << to_string(kind);
    const api::Platform c = make_platform(spec, 100);
    EXPECT_FALSE(a == c) << to_string(kind);
  }
}

TEST(Generators, DepthBiasShapesTrees) {
  PlatformSpec spec;
  spec.kind = api::PlatformKind::kTree;
  spec.size = 12;
  spec.depth_bias = 1.0;
  const auto chain_tree = std::get<Tree>(make_platform(spec, 5));
  for (NodeId v = 0; v < chain_tree.size(); ++v) {
    EXPECT_LE(chain_tree.children(v).size(), 1u) << "node " << v;  // one path: a chain
  }
  // Bias 0 must reproduce the historical random_tree stream.
  spec.depth_bias = 0.0;
  Rng rng(5);
  const Tree expected = random_tree(rng, 12, GeneratorParams{spec.lo, spec.hi, spec.cls});
  EXPECT_EQ(std::get<Tree>(make_platform(spec, 5)), expected);
}

TEST(Expand, DeterministicGridWithStableSeeds) {
  const SweepSpec spec = small_grid();
  const std::vector<Cell> a = expand(spec);
  const std::vector<Cell> b = expand(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].platform_seed, b[i].platform_seed);
    EXPECT_TRUE(*a[i].platform == *b[i].platform);
    seeds.insert(a[i].seed);
  }
  // Per-cell seeds are (practically) unique — online policies must not share
  // streams across cells.
  EXPECT_EQ(seeds.size(), a.size());
}

TEST(Expand, CoversKindsAlgorithmsAndModes) {
  const std::vector<Cell> cells = expand(small_grid());
  std::set<std::string> kinds;
  std::set<std::string> modes;
  for (const Cell& cell : cells) {
    kinds.insert(cell.kind);
    modes.insert(to_string(cell.mode));
    // Default algorithm resolution never picks exponential oracles.
    EXPECT_NE(cell.algorithm, "brute-force");
  }
  EXPECT_EQ(kinds, (std::set<std::string>{"chain", "fork", "spider", "tree"}));
  EXPECT_EQ(modes, (std::set<std::string>{"solve", "within"}));
}

TEST(Expand, RejectsEmptyAndUnknown) {
  SweepSpec spec;
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no kinds, no platforms
  spec.kinds = {api::PlatformKind::kChain};
  spec.sizes = {2};
  EXPECT_THROW(expand(spec), std::invalid_argument);  // no work axis
  spec.tasks = {4};
  EXPECT_NO_THROW(expand(spec));
  spec.algorithms = {"no-such-algorithm"};
  EXPECT_THROW(expand(spec), std::invalid_argument);
  spec.algorithms.clear();
  spec.lo = 9;
  spec.hi = 1;  // inverted times range fails with spec context, not deep in the generator
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

TEST(Runner, ThreadCountInvariance) {
  const SweepSpec spec = small_grid();
  RunOptions one;
  one.threads = 1;
  RunOptions many;
  many.threads = 5;
  const std::string csv_one = to_csv(run_sweep(spec, one));
  const std::string csv_many = to_csv(run_sweep(spec, many));
  EXPECT_EQ(csv_one, csv_many);
  const std::string json_one = to_json(run_sweep(spec, one));
  const std::string json_many = to_json(run_sweep(spec, many));
  EXPECT_EQ(json_one, json_many);
}

TEST(Runner, ProgressCallbackCountsEveryCellAtAnyThreadCount) {
  const SweepSpec spec = small_grid();
  const std::vector<Cell> cells = expand(spec);
  for (const unsigned threads : {1u, 2u, 5u}) {
    RunOptions options;
    options.threads = threads;
    std::vector<std::size_t> dones;
    std::size_t failures = 0;
    // The callback mutates plain vectors from pool workers on purpose: the
    // ProgressSink serializes invocations under its annotated mutex, so
    // this is race-free (TSan runs this suite in CI).
    options.on_progress = [&](std::size_t done, std::size_t total, bool failed) {
      EXPECT_EQ(total, cells.size());
      dones.push_back(done);
      if (failed) ++failures;
    };
    run_cells(cells, options);
    // One leading (0, total, false) announcement, then exactly one call per
    // cell; `done` is monotone 0, 1 .. total regardless of which thread
    // finished which cell.
    ASSERT_EQ(dones.size(), cells.size() + 1);
    for (std::size_t i = 0; i < dones.size(); ++i) EXPECT_EQ(dones[i], i);
    EXPECT_EQ(failures, 0u);
  }
}

TEST(Runner, FastPathMatchesMaterializedAndChecked) {
  // The allocation-free counting paths and payload stripping must not change
  // any reported number: the CSV (which excludes timing) is identical.
  const SweepSpec spec = small_grid();
  RunOptions fast;
  fast.threads = 2;
  RunOptions checked;
  checked.threads = 2;
  checked.materialize = true;
  checked.check = true;
  const std::vector<CellOutcome> a = run_sweep(spec, fast);
  const std::vector<CellOutcome> b = run_sweep(spec, checked);
  EXPECT_EQ(to_csv(a), to_csv(b));
  for (const CellOutcome& out : b) EXPECT_TRUE(out.ok()) << out.error;
}

TEST(Runner, ErrorsAreReportedPerCell) {
  // A private registry whose only entry throws: the runner must record the
  // message per cell instead of aborting the sweep, and the reporters must
  // quote/escape it.
  api::Registry registry;
  registry.add({api::PlatformKind::kChain, "boom", "always throws"},
               [](const api::Platform&, const Workload&,
                  const api::SolveOptions&) -> api::SolveResult {
                 throw std::runtime_error("kaboom, \"quoted\" failure");
               });
  SweepSpec spec;
  spec.name = "boom";
  spec.platforms.push_back(Chain::from_vectors({2}, {3}));
  spec.tasks = {4};
  spec.algorithms = {"boom"};
  const std::vector<CellOutcome> outcomes =
      run_cells(expand(spec, registry), RunOptions{}, registry);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_NE(outcomes[0].error.find("kaboom"), std::string::npos);
  const std::string csv = to_csv(outcomes);
  EXPECT_NE(csv.find("\"kaboom, \"\"quoted\"\" failure\""), std::string::npos);
  const std::string json = to_json(outcomes);
  EXPECT_NE(json.find("\"error\":\"kaboom, \\\"quoted\\\" failure\""), std::string::npos);
}

TEST(Runner, AlgorithmsFilterPerKind) {
  SweepSpec spec;
  spec.name = "filter";
  spec.platforms.push_back(Chain::from_vectors({2}, {3}));
  spec.tasks = {4};
  spec.kinds = {api::PlatformKind::kTree};
  spec.sizes = {2};
  // "local-search" exists for trees but not for chains: the chain platform's
  // cells simply skip it, while tree cells run it.
  spec.algorithms = {"optimal", "local-search"};
  const std::vector<CellOutcome> outcomes = run_cells(expand(spec), RunOptions{});
  ASSERT_FALSE(outcomes.empty());
  for (const CellOutcome& out : outcomes) EXPECT_TRUE(out.ok()) << out.error;
  std::set<std::string> algorithms;
  for (const CellOutcome& out : outcomes) algorithms.insert(out.cell.algorithm);
  EXPECT_EQ(algorithms, (std::set<std::string>{"optimal", "local-search"}));
}

TEST(Report, CsvShape) {
  SweepSpec spec;
  spec.name = "csv";
  spec.platforms.push_back(Chain::from_vectors({2, 3}, {3, 5}));
  spec.tasks = {5};
  spec.deadlines = {14};
  spec.algorithms = {"optimal"};
  const std::vector<CellOutcome> outcomes = run_sweep(spec, RunOptions{});
  ASSERT_EQ(outcomes.size(), 2u);
  const std::string csv = to_csv(outcomes);
  EXPECT_NE(csv.find("spec,kind,class,size,instance,platform_seed,algorithm,mode,n,deadline,"
                     "workload,cell_seed,tasks,makespan,lower_bound,optimal,throughput,"
                     "latency,backlog,regret,error"),
            std::string::npos);
  // Fig 2: 5 tasks take 14, and 5 tasks fit in a window of 14.
  EXPECT_NE(csv.find("csv,chain,-,2,0,0,optimal,solve,5,,unit,"), std::string::npos);
  EXPECT_NE(csv.find(",5,14,"), std::string::npos);
  ReportOptions timing;
  timing.timing = true;
  EXPECT_NE(to_csv(outcomes, timing).find(",wall_ms,"), std::string::npos);
}

TEST(SweepSpecText, WorkloadAxisRoundTripsAndRejects) {
  // Every family has a line form and survives the round trip.
  const SweepSpec spec = parse_spec(
      "sweep wl\n"
      "kinds chain\n"
      "sizes 2\n"
      "tasks 6\n"
      "tasks.sizes unit\n"
      "tasks.sizes fixed 3\n"
      "tasks.sizes uniform 1 4\n"
      "tasks.release periodic 2\n"
      "tasks.release jitter 0 9\n"
      "tasks.arrival poisson 4\n"
      "tasks.arrival bursts 3 7\n");
  ASSERT_EQ(spec.workloads.size(), 7u);
  EXPECT_TRUE(spec.workloads[0].identical());
  EXPECT_EQ(spec.workloads[2].sizes.kind, SizeDist::Kind::kUniform);
  EXPECT_EQ(spec.workloads[5].arrival.kind, ArrivalDist::Kind::kPoisson);
  EXPECT_EQ(spec, parse_spec(oracle::write_spec(spec)));

  EXPECT_THROW(parse_spec("sweep s\ntasks.sizes blob\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("sweep s\ntasks.sizes uniform 4 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("sweep s\ntasks.release periodic\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("sweep s\ntasks.arrival bursts 0 4\n"), std::invalid_argument);
  // Combined generators are constructible in code but have no line form.
  SweepSpec combined;
  combined.kinds = {api::PlatformKind::kChain};
  combined.sizes = {2};
  combined.tasks = {4};
  WorkloadGen both;
  both.sizes = SizeDist{SizeDist::Kind::kFixed, 2, 0};
  both.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, 2, 0};
  combined.workloads = {both};
  EXPECT_THROW(oracle::write_spec(combined), std::invalid_argument);
}

TEST(Expand, WorkloadAxisPairsOnlySupportingAlgorithms) {
  SweepSpec spec;
  spec.name = "caps";
  spec.kinds = {api::PlatformKind::kChain};
  spec.sizes = {2};
  spec.tasks = {4};
  spec.deadlines = {30};
  WorkloadGen released;
  released.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, 2, 0};
  WorkloadGen sized;
  sized.sizes = SizeDist{SizeDist::Kind::kUniform, 1, 3};
  spec.workloads = {WorkloadGen{}, released, sized};

  const std::vector<Cell> cells = expand(spec);
  ASSERT_FALSE(cells.empty());
  bool saw_released_optimal = false;
  for (const Cell& cell : cells) {
    if (cell.workload == nullptr) {
      EXPECT_EQ(cell.workload_label, "unit");
      continue;
    }
    // Cells only pair a generator with algorithms that declared support.
    const WorkloadFeatures features = cell.workload->features();
    EXPECT_TRUE(api::registry().supports(api::PlatformKind::kChain, cell.algorithm, features))
        << cell.algorithm << " vs " << cell.workload_label;
    // `periodic` never lands on `periodic`-the-algorithm (identical-only),
    // and sized workloads never land on `optimal`.
    if (cell.workload_label == "periodic(2)" && cell.algorithm == "optimal") {
      saw_released_optimal = true;
    }
    EXPECT_NE(cell.algorithm, "periodic");
    if (!cell.workload->uniform_sizes()) {
      EXPECT_NE(cell.algorithm, "optimal");
    }
    // Decision-form workload cells carry their finite pool size.
    if (cell.mode == CellMode::kWithin) {
      EXPECT_EQ(cell.n, 4u);
      EXPECT_EQ(cell.workload->count(), 4u);
    }
  }
  EXPECT_TRUE(saw_released_optimal);

  // A deadline axis with a non-identical generator needs a pool size.
  SweepSpec no_pool = spec;
  no_pool.tasks.clear();
  EXPECT_THROW(expand(no_pool), std::invalid_argument);
}

TEST(Expand, WorkloadsAreDeterministicAndSharedAcrossAlgorithms) {
  SweepSpec spec;
  spec.name = "share";
  spec.kinds = {api::PlatformKind::kSpider};
  spec.sizes = {3};
  spec.tasks = {6};
  WorkloadGen jitter;
  jitter.arrival = ArrivalDist{ArrivalDist::Kind::kJitter, 0, 20};
  spec.workloads = {jitter};
  spec.algorithms = {"optimal", "forward-greedy", "round-robin"};

  const std::vector<Cell> a = expand(spec);
  const std::vector<Cell> b = expand(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 3u);
  const Workload* shared = nullptr;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NE(a[i].workload, nullptr);
    EXPECT_EQ(*a[i].workload, *b[i].workload);  // same seeds, same draws
    EXPECT_EQ(a[i].workload_seed, b[i].workload_seed);
    if (shared == nullptr) {
      shared = a[i].workload.get();
    } else {
      // One generated instance serves every algorithm of the platform.
      EXPECT_EQ(shared, a[i].workload.get());
    }
  }
}

TEST(Runner, ReleaseAxisSweepIsThreadInvariantAndFeasible) {
  SweepSpec spec;
  spec.name = "released";
  spec.seed = 17;
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kSpider};
  spec.sizes = {2, 3};
  spec.instances = 2;
  spec.tasks = {5, 9};
  spec.deadlines = {70};
  WorkloadGen released;
  released.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, 2, 0};
  spec.workloads = {WorkloadGen{}, released};
  spec.algorithms = {"optimal"};

  RunOptions one;
  one.threads = 1;
  RunOptions many;
  many.threads = 4;
  const std::vector<CellOutcome> outcomes = run_sweep(spec, one);
  EXPECT_EQ(to_csv(outcomes), to_csv(run_sweep(spec, many)));

  // The materialized twin passes feasibility checking (release gates
  // included) and reports the same numbers.
  RunOptions checked;
  checked.threads = 2;
  checked.materialize = true;
  checked.check = true;
  const std::vector<CellOutcome> verified = run_sweep(spec, checked);
  EXPECT_EQ(to_csv(outcomes), to_csv(verified));
  bool saw_released_cell = false;
  for (const CellOutcome& out : verified) {
    EXPECT_TRUE(out.ok()) << out.error;
    if (out.cell.workload != nullptr) {
      saw_released_cell = true;
      EXPECT_TRUE(out.cell.workload->has_release_dates());
    }
  }
  EXPECT_TRUE(saw_released_cell);
}

TEST(SweepSpecText, StreamKeyRoundTripsAndRejectsValues) {
  const SweepSpec spec = parse_spec(
      "sweep s\n"
      "kinds tree\n"
      "sizes 3\n"
      "tasks 6\n"
      "stream\n");
  EXPECT_TRUE(spec.stream);
  EXPECT_EQ(spec, parse_spec(oracle::write_spec(spec)));
  EXPECT_THROW(parse_spec("sweep s\nstream on\n"), std::invalid_argument);
  // Stream cells draw their task count from `tasks`.
  SweepSpec no_tasks;
  no_tasks.kinds = {api::PlatformKind::kTree};
  no_tasks.sizes = {3};
  no_tasks.deadlines = {30};
  no_tasks.stream = true;
  EXPECT_THROW(expand(no_tasks), std::invalid_argument);
}

TEST(Expand, StreamCellsPairOnlyStreamingCapableAlgorithms) {
  SweepSpec spec;
  spec.name = "streamcaps";
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kTree};
  spec.sizes = {3};
  spec.tasks = {6};
  spec.stream = true;
  WorkloadGen poisson;
  poisson.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, 3, 0};
  spec.workloads = {WorkloadGen{}, poisson};

  std::set<std::string> stream_algorithms;
  std::size_t stream_cells = 0;
  for (const Cell& cell : expand(spec)) {
    if (cell.mode != CellMode::kStream) continue;
    ++stream_cells;
    stream_algorithms.insert(cell.kind + "/" + cell.algorithm);
    WorkloadFeatures requested =
        cell.workload != nullptr ? cell.workload->features() : WorkloadFeatures{};
    requested.streaming = true;
    EXPECT_TRUE(api::registry().supports(*api::platform_kind_from(cell.kind), cell.algorithm,
                                         requested))
        << cell.kind << "/" << cell.algorithm;
    EXPECT_EQ(cell.n, 6u);
  }
  // Chains stream only through the re-planner; trees through the four
  // online policies (both workload-axis points each).
  EXPECT_EQ(stream_algorithms,
            (std::set<std::string>{"chain/replan", "tree/online-ect", "tree/online-jsq",
                                   "tree/online-round-robin", "tree/online-random"}));
  EXPECT_EQ(stream_cells, 2u * stream_algorithms.size());
}

TEST(Runner, StreamSweepIsThreadInvariantWithMetricColumns) {
  SweepSpec spec;
  spec.name = "streamrun";
  spec.seed = 23;
  spec.kinds = {api::PlatformKind::kChain, api::PlatformKind::kSpider,
                api::PlatformKind::kTree};
  spec.sizes = {3};
  spec.instances = 2;
  spec.tasks = {8};
  spec.stream = true;
  WorkloadGen poisson;
  poisson.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, 4, 0};
  spec.workloads = {WorkloadGen{}, poisson};

  RunOptions one;
  one.threads = 1;
  RunOptions many;
  many.threads = 4;
  const std::vector<CellOutcome> outcomes = run_sweep(spec, one);
  EXPECT_EQ(to_csv(outcomes), to_csv(run_sweep(spec, many)));
  EXPECT_EQ(to_json(outcomes), to_json(run_sweep(spec, many)));

  bool saw_regret = false;
  for (const CellOutcome& out : outcomes) {
    EXPECT_TRUE(out.ok()) << out.error;
    if (out.cell.mode != CellMode::kStream) continue;
    EXPECT_GE(out.mean_latency, 0.0);
    EXPECT_GE(out.peak_backlog, 1u);
    // Regret exists exactly where an exact offline reference does: chains
    // always, spiders only on release-free (unit) workloads; trees never.
    // Elsewhere the sentinel, not inf/nan.
    const bool exact_offline =
        out.cell.kind == "chain" ||
        (out.cell.kind == "spider" && out.cell.workload_label == "unit");
    if (exact_offline) {
      // The streamed execution is a feasible schedule of the same
      // workload, so it can never beat the exact offline optimum.
      EXPECT_GE(out.regret, 1.0) << out.cell.kind << " " << out.cell.workload_label;
      saw_regret = true;
    } else {
      EXPECT_LT(out.regret, 0.0) << out.cell.kind << " " << out.cell.workload_label;
    }
  }
  EXPECT_TRUE(saw_regret);
  const std::string csv = to_csv(outcomes);
  EXPECT_NE(csv.find(",stream,"), std::string::npos);
  EXPECT_EQ(csv.find("inf"), std::string::npos);
  EXPECT_EQ(csv.find("nan"), std::string::npos);
}

TEST(Report, JsonShape) {
  SweepSpec spec;
  spec.name = "json";
  spec.platforms.push_back(Chain::from_vectors({2, 3}, {3, 5}));
  spec.tasks = {5};
  spec.algorithms = {"optimal"};
  const std::string json = to_json(run_sweep(spec, RunOptions{}));
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"algorithm\":\"optimal\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan\":14"), std::string::npos);
  EXPECT_NE(json.find("\"optimal\":true"), std::string::npos);
}

}  // namespace
}  // namespace mst::scenario
