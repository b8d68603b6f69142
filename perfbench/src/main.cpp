// mstbench: the sweep benchmark.  Runs one named workload through the real
// sweep path and prints its metrics; perfbench/run.py builds and drives it.
//
//   mstbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            [--work-dir=DIR] [--report=FILE] [--trace-out=FILE]
//
// --trace=0 is the untraced end-to-end run (four workers, measured for
// --seconds); --trace=1 the single-threaded traced per-layer run.  Exit
// status: 0 when every output check passed, 1 when one failed, 2 on usage
// or set-up errors (no result is printed then).

#include <exception>
#include <filesystem>
#include <iostream>

#include "bench.hpp"
#include "mst/common/cli.hpp"

int main(int argc, char** argv) {
  mstbench::Options options;
  try {
    const mst::Args args(argc, argv);
    options.workload = args.get("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10);
    options.work_dir = args.get("work-dir", ".mstbench-work");
    options.report_path = args.get("report", "");
    options.trace_path = args.get("trace-out", "");
    const bool traced = args.get_int("trace", 0) != 0;
    const mstbench::Result result =
        traced ? mstbench::run_traced(options) : mstbench::run_end_to_end(options);
    std::filesystem::remove_all(options.work_dir);
    mstbench::emit(options, traced, result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mstbench: " << e.what() << "\n";
    std::error_code ignored;
    if (!options.work_dir.empty()) std::filesystem::remove_all(options.work_dir, ignored);
    return 2;
  }
}
