// CPLX-SIM: microbenchmarks of the simulator substrate — the event loop on
// a fixed destination sequence, online store-and-forward dispatch, static
// replay and the horizon re-planning stream policy.  Timing harness shared with the other bench_* binaries:
// bench/bench_harness.hpp; the committed baseline is bench/BENCH_sim.json.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_harness.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/static_replay.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/arrival.hpp"

namespace {

using mst::bench::Row;
using mst::bench::keep;
using mst::bench::time_op;

std::vector<Row> run_all() {
  std::vector<Row> rows;

  {
    // Fixed destinations: no policy runs, so the row times the event loop.
    mst::Rng rng(0xD15);
    const mst::Tree tree = mst::random_tree(rng, 24, {1, 10, mst::PlatformClass::kUniform});
    for (std::size_t n = 1024; n <= 65536; n *= 4) {
      std::vector<mst::NodeId> dests(n);
      for (mst::NodeId& dest : dests) {
        dest = static_cast<mst::NodeId>(
            rng.uniform(1, static_cast<std::int64_t>(tree.size()) - 1));
      }
      rows.push_back({"simulate_dispatch", n, time_op([&] {
                        keep(mst::sim::simulate_dispatch(tree, dests).makespan);
                      })});
    }
  }
  {
    mst::Rng rng(0x51D);
    const mst::Tree tree = mst::random_tree(rng, 24, {1, 10, mst::PlatformClass::kUniform});
    for (std::size_t n = 64; n <= 1024; n *= 4) {
      rows.push_back({"simulate_online_ect", n, time_op([&] {
                        keep(mst::sim::simulate_online(
                            tree, n, mst::sim::OnlinePolicy::kEarliestCompletion, 1));
                      })});
    }
  }
  {
    mst::Rng rng(0x9E91A);
    const mst::Chain chain = mst::random_chain(rng, 12, {1, 10, mst::PlatformClass::kUniform});
    for (std::size_t n = 64; n <= 1024; n *= 4) {
      const mst::ChainSchedule s = mst::ChainScheduler::schedule(chain, n);
      rows.push_back({"static_replay_chain", n, time_op([&] { keep(mst::sim::replay(s)); })});
    }
  }
  {
    // The horizon re-planner on periodic arrivals, one fresh policy per run.
    // The chain keeps up, so every replan reads its held one-task plan; the
    // spider and the fork (whose links take 4 or more per task) fall behind,
    // and their growing backlogs re-solve at nearly every batch, each on leg
    // profiles the policy keeps for the run.  The rows bracket the policy's
    // cost.
    mst::Rng rng(0x4E9);
    const mst::GeneratorParams params{1, 10, mst::PlatformClass::kUniform};
    const mst::GeneratorParams slow{4, 10, mst::PlatformClass::kUniform};
    const mst::Platform platforms[] = {mst::random_chain(rng, 12, params),
                                       mst::random_spider(rng, 6, 3, params),
                                       mst::random_fork(rng, 12, slow)};
    const char* names[] = {"replan_chain", "replan_spider", "replan_fork"};
    const mst::WorkloadGen periodic{{}, {mst::ArrivalDist::Kind::kPeriodic, 2, 0}};
    for (std::size_t k = 0; k < 3; ++k) {
      const mst::Tree substrate = mst::sim::stream_substrate(platforms[k]);
      for (std::size_t n = 256; n <= 1024; n *= 4) {
        const mst::Workload workload = periodic.make(n, 1);
        rows.push_back({names[k], n, time_op([&] {
                          const auto policy = mst::sim::make_replan_policy(platforms[k]);
                          keep(mst::sim::drive_stream(substrate, workload, *policy).makespan);
                        })});
      }
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  return mst::bench::bench_main(argc, argv, "bench_sim", run_all);
}
