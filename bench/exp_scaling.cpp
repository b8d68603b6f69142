// CPLX-CHAIN / CPLX-SPIDER: measured complexity of the algorithms.  The
// paper gives O(n·p²) for the chain algorithm (§3) — this library's kernel
// runs in O(n·p) (core/chain_scheduler.hpp) — and a polynomial below
// O(n²·p²) for the spider algorithm (Theorem 2).  This harness runs
// geometric sweeps as declarative scenario grids on the sweep runner
// (single-threaded, best-of-`reps` wall times, registry dispatch — the path
// the CLI and the other experiments exercise) and fits log-log slopes: the
// chain exponent must be ~1 in n and at most ~1 in p (the kernel's
// per-task scan stops early once no farther destination can win, so on
// random chains the p-sweep grows well below linearly).

#include <iostream>
#include <vector>

#include "mst/common/cli.hpp"
#include "mst/common/stats.hpp"
#include "mst/common/table.hpp"
#include "mst/scenario/runner.hpp"
#include "mst/scenario/spec.hpp"

namespace {

/// Runs one timing grid: single worker (timing integrity), payload-free
/// fast path, best-of-`reps` per cell.
std::vector<mst::scenario::CellOutcome> run_timing(const mst::scenario::SweepSpec& spec,
                                                   int reps) {
  mst::scenario::RunOptions options;
  options.threads = 1;
  options.materialize = false;
  options.reps = reps;
  return mst::scenario::run_sweep(spec, options);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mst;
  const Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 0xA11CE));

  std::cout << "CPLX — measured scaling of the schedulers (best of " << reps << " runs)\n\n";

  scenario::SweepSpec base;
  base.seed = seed;
  base.classes = {PlatformClass::kUniform};
  base.lo = 1;
  base.hi = 10;
  base.algorithms = {"optimal"};

  // Chain: sweep n at fixed p.
  {
    scenario::SweepSpec spec = base;
    spec.name = "cplx-chain-n";
    spec.kinds = {api::PlatformKind::kChain};
    spec.sizes = {16};
    spec.tasks = {128, 256, 512, 1024, 2048, 4096, 8192};

    Table table({"n (p=16)", "time [us]", "us per task"});
    std::vector<double> xs;
    std::vector<double> ys;
    for (const scenario::CellOutcome& out : run_timing(spec, reps)) {
      const double us = out.wall_ms * 1000.0;
      table.row().cell(out.cell.n).cell(us, 1).cell(us / static_cast<double>(out.cell.n), 4);
      xs.push_back(static_cast<double>(out.cell.n));
      ys.push_back(us);
    }
    table.print(std::cout);
    std::cout << "fitted exponent in n: " << fit_loglog_slope(xs, ys)
              << "  (expected: 1.0, O(n·p); the paper gives O(n·p²))\n\n";
  }

  // Chain: sweep p at fixed n.
  {
    scenario::SweepSpec spec = base;
    spec.name = "cplx-chain-p";
    spec.kinds = {api::PlatformKind::kChain};
    spec.sizes = {4, 8, 16, 32, 64, 128, 256, 512};
    spec.tasks = {512};

    Table table({"p (n=512)", "time [us]"});
    std::vector<double> xs;
    std::vector<double> ys;
    for (const scenario::CellOutcome& out : run_timing(spec, reps)) {
      const double us = out.wall_ms * 1000.0;
      table.row().cell(out.cell.size).cell(us, 1);
      xs.push_back(static_cast<double>(out.cell.size));
      ys.push_back(us);
    }
    table.print(std::cout);
    std::cout << "fitted exponent in p: " << fit_loglog_slope(xs, ys)
              << "  (expected: <= 1.0, O(n·p) at worst; the paper gives O(n·p²))\n\n";
  }

  // Spider: sweep n (6 legs of exactly 3 processors).
  {
    scenario::SweepSpec spec = base;
    spec.name = "cplx-spider-n";
    spec.kinds = {api::PlatformKind::kSpider};
    spec.sizes = {6};
    spec.min_leg_len = 3;
    spec.max_leg_len = 3;
    spec.tasks = {32, 64, 128, 256, 512, 1024};

    Table table({"n (6 legs x 3)", "time [us]"});
    std::vector<double> xs;
    std::vector<double> ys;
    for (const scenario::CellOutcome& out : run_timing(spec, reps)) {
      const double us = out.wall_ms * 1000.0;
      table.row().cell(out.cell.n).cell(us, 1);
      xs.push_back(static_cast<double>(out.cell.n));
      ys.push_back(us);
    }
    table.print(std::cout);
    std::cout << "fitted exponent in n: " << fit_loglog_slope(xs, ys)
              << "  (paper: <= 2.0 — Theorem 2, incl. the binary search)\n";
  }
  return 0;
}
