// CPLX-SPIDER: microbenchmarks of the spider algorithm (Theorem 2 claims a
// polynomial bound below O(n²p²)) — decision form, makespan n-sweep and
// legs-sweep at n = 1024, its materialization step alone, the
// release-dated makespan form and the spider→chains transformation.  Timing
// harness shared with the other bench_* binaries: bench/bench_harness.hpp;
// the committed baseline is bench/BENCH_spider.json.

#include <cstddef>
#include <utility>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/workload.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

mst::Spider make_spider(std::size_t legs, std::size_t leg_len) {
  mst::Rng rng(0x591D3 + legs * 131 + leg_len);
  mst::GeneratorParams params{1, 10, mst::PlatformClass::kUniform};
  std::vector<mst::Chain> chains;
  for (std::size_t l = 0; l < legs; ++l) {
    chains.push_back(mst::random_chain(rng, leg_len, params));
  }
  return mst::Spider(std::move(chains));
}

std::vector<Row> run_all() {
  std::vector<Row> rows;

  for (std::size_t legs = 2; legs <= 32; legs *= 2) {
    const mst::Spider spider = make_spider(legs, 4);
    rows.push_back({"spider_decision_form", legs, time_op([&] {
                      keep(mst::SpiderScheduler::max_tasks(spider, 1000, 512));
                    })});
  }
  {
    const mst::Spider spider6 = make_spider(6, 3);
    for (std::size_t n = 16; n <= 512; n *= 2) {
      rows.push_back({"spider_makespan_tasks", n, time_op([&] {
                        keep(mst::SpiderScheduler::makespan(spider6, n));
                      })});
    }
    // The materialization alone: the decision form at the optimal horizon
    // (which the makespan search lands on), on a fresh scratch like the
    // row above — so the search's share is that row minus this one.
    for (std::size_t n = 16; n <= 512; n *= 2) {
      const mst::Time optimum = mst::SpiderScheduler::makespan(spider6, n);
      rows.push_back({"spider_within_at_optimum", n, time_op([&] {
                        mst::SpiderSolveScratch scratch;
                        mst::SpiderSchedule out;
                        mst::SpiderScheduler::schedule_within_into(spider6, optimum, n, scratch,
                                                                   out);
                        keep(out.tasks.size());
                      })});
    }
  }
  // The release-dated makespan form on 8 unit legs (a fork), one task
  // released every 2 time units, on a warm scratch: the positional-release
  // search and its selection DP.  The first links draw from [1, 10], so the
  // master's port, not the releases, binds, and slower legs fill positions
  // the fastest could still lower: the DP relaxes about N·K/3 positions.
  {
    const mst::Spider fork8 = make_spider(8, 1);
    for (const std::size_t n : {64, 256, 512}) {
      std::vector<mst::Time> releases(n);
      for (std::size_t i = 0; i < n; ++i) releases[i] = 2 * static_cast<mst::Time>(i);
      const mst::Workload workload = mst::Workload::released(std::move(releases));
      mst::SpiderSolveScratch scratch;
      mst::SpiderSchedule out;
      rows.push_back({"spider_release_makespan", n, time_op([&] {
                        mst::SpiderScheduler::schedule_into(fork8, workload, scratch, out);
                        keep(out.makespan());
                      })});
    }
  }
  // The makespan form against the number of legs (two processors each) at
  // n = 1024: one backward construction per leg and one p-way merge, the
  // probes from the one-port floor, and the selection on the built
  // instance with only each leg's kept suffix rebuilt.
  for (std::size_t legs = 16; legs <= 256; legs *= 4) {
    const mst::Spider spider = make_spider(legs, 2);
    rows.push_back({"spider_makespan_procs", legs, time_op([&] {
                      keep(mst::SpiderScheduler::makespan(spider, 1024));
                    })});
  }
  for (std::size_t legs = 2; legs <= 32; legs *= 2) {
    const mst::Spider spider = make_spider(legs, 4);
    rows.push_back({"spider_transformation", legs, time_op([&] {
                      keep(mst::SpiderScheduler::transform(spider, 1000, 512));
                    })});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_spider", run_all);
}
