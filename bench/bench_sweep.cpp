// SWEEP: end-to-end scenario-runner benchmarks — the batched work-stealing
// executor (same-platform batches, one warm SolveScratch per worker) at one
// and four threads, plus scratch-vs-fresh micro rows for one materialized
// solve.  Results are bit-identical in every configuration (pinned by
// tests/test_zero_alloc.cpp and the CI thread-count diffs); only wall time
// moves.  Timing harness shared with the other bench_*
// binaries: bench/bench_harness.hpp; the committed baseline is
// bench/BENCH_sweep.json.

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/platform/generator.hpp"
#include "mst/scenario/runner.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

/// A multi-platform × tasks-axis grid, hand-built so the bench controls
/// batch shape exactly: every platform contributes one same-platform batch
/// of `kTasksAxis` solve cells.
const std::size_t kTasksAxis[] = {64, 128, 256, 512};

void add_cells(std::vector<mst::scenario::Cell>& cells,
               std::shared_ptr<const mst::api::Platform> platform, const char* kind,
               const char* algorithm, const std::size_t* tasks_axis, std::size_t axis_len) {
  for (std::size_t t = 0; t < axis_len; ++t) {
    mst::scenario::Cell cell;
    cell.index = cells.size();
    cell.spec_name = "bench";
    cell.platform = platform;
    cell.kind = kind;
    cell.cls = "uniform";
    cell.size = mst::api::num_processors(*platform);
    cell.algorithm = algorithm;
    cell.mode = mst::scenario::CellMode::kSolve;
    cell.n = tasks_axis[t];
    cell.seed = 1;
    cells.push_back(std::move(cell));
  }
}

std::vector<mst::scenario::Cell> make_grid() {
  const mst::GeneratorParams params{1, 10, mst::PlatformClass::kUniform};
  std::vector<mst::scenario::Cell> cells;
  for (std::uint64_t i = 0; i < 2; ++i) {
    mst::Rng chain_rng(0x5EED0 + i);
    auto chain = std::make_shared<const mst::api::Platform>(
        mst::random_chain(chain_rng, 12, params));
    add_cells(cells, chain, "chain", "optimal", kTasksAxis, 4);

    mst::Rng fork_rng(0x5EED4 + i);
    auto fork =
        std::make_shared<const mst::api::Platform>(mst::random_fork(fork_rng, 12, params));
    add_cells(cells, fork, "fork", "optimal", kTasksAxis, 4);

    mst::Rng spider_rng(0x5EED8 + i);
    auto spider = std::make_shared<const mst::api::Platform>(
        mst::random_spider(spider_rng, 6, 3, params));
    add_cells(cells, spider, "spider", "optimal", kTasksAxis, 4);
  }
  mst::Rng tree_rng(0x5EEDC);
  auto tree =
      std::make_shared<const mst::api::Platform>(mst::random_tree(tree_rng, 10, params));
  const std::size_t tree_axis[] = {64, 128};
  add_cells(cells, tree, "tree", "spider-cover", tree_axis, 2);
  add_cells(cells, tree, "tree", "forward-greedy", tree_axis, 2);
  return cells;
}

double grid_ns(const std::vector<mst::scenario::Cell>& cells, unsigned threads) {
  mst::scenario::RunOptions options;
  options.threads = threads;
  options.materialize = true;
  options.reps = 2;
  return time_op([&] { keep(mst::scenario::run_cells(cells, options)); });
}

std::vector<Row> run_all() {
  const mst::api::Registry& reg = mst::api::registry();
  std::vector<Row> rows;

  // End-to-end: the grid through the batched executor, single- and
  // multi-threaded.  `n` records the thread count.
  const std::vector<mst::scenario::Cell> cells = make_grid();
  rows.push_back({"sweep_batched", 1, grid_ns(cells, 1)});
  rows.push_back({"sweep_batched", 4, grid_ns(cells, 4)});

  // Micro: one materialized solve, warm scratch vs fresh allocations.
  mst::Rng rng(0x5EED);
  const mst::GeneratorParams params{1, 10, mst::PlatformClass::kUniform};
  const mst::api::Platform chain(mst::random_chain(rng, 12, params));
  const mst::api::Platform spider(mst::random_spider(rng, 6, 3, params));
  const std::size_t n = 1024;
  mst::api::SolveScratch scratch;
  mst::api::SolveOptions with_scratch;
  with_scratch.scratch = &scratch;
  rows.push_back({"chain_solve_scratch", n, time_op([&] {
                    auto result = reg.solve(chain, "optimal", n, with_scratch);
                    keep(result);
                    scratch.recycle(std::move(result));
                  })});
  rows.push_back({"chain_solve_fresh", n, time_op([&] {
                    keep(reg.solve(chain, "optimal", n, {}));
                  })});
  rows.push_back({"spider_solve_scratch", n, time_op([&] {
                    auto result = reg.solve(spider, "optimal", n, with_scratch);
                    keep(result);
                    scratch.recycle(std::move(result));
                  })});
  rows.push_back({"spider_solve_fresh", n, time_op([&] {
                    keep(reg.solve(spider, "optimal", n, {}));
                  })});
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_sweep", run_all);
}
