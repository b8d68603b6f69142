// CPLX-CHAIN: microbenchmarks of the chain algorithm — the paper gives
// O(n·p²); the kernel runs in O(n·p) (core/chain_scheduler.hpp), so the
// n-sweep must scale linearly and the p-sweep at most linearly (see
// exp_scaling for the fitted exponents).  Timing harness shared with the other bench_*
// binaries: bench/bench_harness.hpp; the committed baseline is
// bench/BENCH_chain.json.

#include <cstddef>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

mst::Chain make_chain(std::size_t p) {
  mst::Rng rng(0xC4A1F + p);
  return mst::random_chain(rng, p, {1, 10, mst::PlatformClass::kUniform});
}

std::vector<Row> run_all() {
  std::vector<Row> rows;
  const mst::Chain chain16 = make_chain(16);

  for (std::size_t n = 64; n <= 4096; n *= 2) {
    rows.push_back({"chain_schedule_tasks", n, time_op([&] {
                      keep(mst::ChainScheduler::schedule(chain16, n));
                    })});
  }
  for (std::size_t p = 2; p <= 512; p *= 2) {
    const mst::Chain chain = make_chain(p);
    rows.push_back({"chain_schedule_procs", p, time_op([&] {
                      keep(mst::ChainScheduler::schedule(chain, 256));
                    })});
  }
  for (std::size_t n = 64; n <= 4096; n *= 4) {
    const mst::Time window = chain16.t_infinity(n) / 2;
    rows.push_back({"chain_decision_form", n, time_op([&] {
                      keep(mst::ChainScheduler::max_tasks(chain16, window, n));
                    })});
  }
  for (std::size_t n = 64; n <= 1024; n *= 4) {
    const mst::ChainSchedule schedule = mst::ChainScheduler::schedule(chain16, n);
    rows.push_back({"chain_feasibility_check", n, time_op([&] {
                      keep(mst::check_feasibility(schedule));
                    })});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_chain", run_all);
}
