// CPLX-FORK: microbenchmarks of fork (star) scheduling, which runs on the
// fork's unit-leg spider — decision form, makespan binary search (against
// n, and against p at n = 1024) and its materialization step alone.
// Timing harness shared with the other bench_* binaries:
// bench/bench_harness.hpp; the committed baseline is bench/BENCH_fork.json.

#include <cstddef>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

/// A random fork of `p` slaves as its unit-leg spider.
mst::Spider make_fork(std::size_t p) {
  mst::Rng rng(0xF0A4 + p);
  return mst::Spider::from_fork(mst::random_fork(rng, p, {1, 10, mst::PlatformClass::kUniform}));
}

std::vector<Row> run_all() {
  std::vector<Row> rows;

  for (std::size_t p = 2; p <= 64; p *= 2) {
    const mst::Spider fork = make_fork(p);
    rows.push_back({"fork_decision_form", p, time_op([&] {
                      keep(mst::SpiderScheduler::max_tasks(fork, 2000, 1024));
                    })});
  }
  {
    const mst::Spider fork16 = make_fork(16);
    for (std::size_t n = 16; n <= 1024; n *= 4) {
      rows.push_back({"fork_makespan_form", n, time_op([&] {
                        keep(mst::SpiderScheduler::makespan(fork16, n));
                      })});
    }
    // The materialization alone: the decision form at the optimal horizon
    // (which the makespan search lands on), started early as a fork
    // decision is, on a fresh scratch like the row above — so the search's
    // share is that row minus this one.
    for (std::size_t n = 16; n <= 1024; n *= 4) {
      const mst::Time optimum = mst::SpiderScheduler::makespan(fork16, n);
      rows.push_back({"fork_within_at_optimum", n, time_op([&] {
                        mst::SpiderSolveScratch scratch;
                        mst::SpiderSchedule out;
                        mst::SpiderScheduler::schedule_within_into(fork16, optimum, n, scratch,
                                                                   out);
                        mst::SpiderScheduler::start_early(scratch, out);
                        keep(out.tasks.size());
                      })});
    }
  }
  // The makespan form against the number of slaves at n = 1024: one p-way
  // merge of up to p·n nodes, the probes from the one-port floor, and the
  // selection on the built instance.
  for (std::size_t p = 16; p <= 256; p *= 4) {
    const mst::Spider fork = make_fork(p);
    rows.push_back({"fork_makespan_procs", p, time_op([&] {
                      keep(mst::SpiderScheduler::makespan(fork, 1024));
                    })});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_fork", run_all);
}
