#include "workloads.hpp"

#include <stdexcept>
#include <utility>

#include "mst/scenario/spec.hpp"

namespace mstbench {

using mst::scenario::CellMode;

namespace {

// exact-large: the offline planner at scale.  The exact kernels do almost
// all the work: the chain backward construction (O(n·p²)), Moore–Hodgson
// selection over fork/spider virtual nodes, the makespan bisection probes,
// plus materialization and the feasibility check of every schedule.  A body
// of cells at p = 16 and 64 gives the percentiles their sample count; two
// dozen cells at p = 256 hold the 99th percentile, and the n = 1024 peak
// cells lie beyond it, so kernel work moves p99 more than p50.  Times are
// drawn from [4, 8]: still heterogeneous, but the work a cell does varies
// little from seed to seed.  Large trees run the section-8 heuristics; tree
// online policies supply the streaming cells.
constexpr const char* kExactBody = R"(sweep exact-body
kinds chain fork spider
classes uniform
sizes 16 64
instances 52
times 4 8
leg-len 2 2
tasks 256
deadlines 256 512 1024
algos optimal
end
)";

// The median makespan cell lies in this block of chain cells, whose
// O(n·p²) cost is fixed by (n, p): the p50 then reads the kernel, not the
// boundary between two cost classes.
constexpr const char* kExactMid = R"(sweep exact-mid
kinds chain
classes uniform
sizes 64
instances 200
times 4 8
tasks 256
algos optimal
end
)";

constexpr const char* kExactTail = R"(sweep exact-tail
kinds chain fork spider
classes uniform
sizes 256
instances 8
times 4 8
leg-len 2 2
tasks 256
deadlines 1024
algos optimal
end
)";

constexpr const char* kExactPeak = R"(sweep exact-peak
kinds chain fork spider
classes uniform
sizes 64 256
instances 1
times 4 8
leg-len 2 2
tasks 1024
algos optimal
end
)";

constexpr const char* kExactTree = R"(sweep exact-tree
kinds tree
classes uniform
sizes 32 64
instances 80
times 4 8
depth-bias 0.5
tasks 64
algos spider-cover local-search forward-greedy
end
)";

constexpr const char* kExactTreeDecide = R"(sweep exact-tree-decide
kinds tree
classes uniform
sizes 32 64
instances 20
times 4 8
depth-bias 0.5
deadlines 256 1024
algos forward-greedy
end
)";

constexpr const char* kExactStream = R"(sweep exact-stream
kinds tree
classes uniform
sizes 32 64
instances 70
times 4 8
depth-bias 0.5
tasks 64 256
stream
algos online-ect online-jsq online-round-robin online-random
end
)";

// grid-journaled: the distributed-sweep workflow.  Thousands of tiny cells
// (every kind and class, n <= 9, every non-exponential algorithm) on the
// count-only fast path, run as two journaled shards and merged.  The core
// does almost nothing here: runner batching, registry dispatch, report
// rendering and the journal (one fsync per record, then replay and merge)
// dominate.  A core-kernel win should show no change on this workload; a
// journal change (group commit) should.
constexpr const char* kGrid = R"(sweep grid
kinds chain fork spider tree
classes uniform comm-bound compute-bound correlated anti-correlated
sizes 2 3 4
instances 5
times 1 9
leg-len 1 2
depth-bias 0.5
tasks 3 6 9
deadlines 20
stream
end
)";

// online-release: no-lookahead and release-dated work.  Streaming cells on
// Poisson, burst and periodic arrivals: chain/fork/spider `replan` re-runs
// the exact solver on the backlog at every arrival; trees run the four
// online policies through the event engine.  Release-dated makespan and
// decision cells on chain/fork/spider `optimal` exercise the release-aware
// horizon search and positional-release selection.  The core runs as many
// small re-solves rather than a few big ones, so a change that speeds large
// solves but slows small ones shows here.  A few tree decision cells on a
// released pool go through the registry's makespan-inversion adapter.
// Times are drawn from [4, 8], as in exact-large, so the replan tail that
// holds the streaming p99 does similar work under every seed.
constexpr const char* kReleaseReplan = R"(sweep release-replan
kinds chain fork spider
classes uniform
sizes 8
instances 48
times 4 8
leg-len 2 2
tasks 256
stream
tasks.arrival poisson 4
tasks.arrival bursts 8 24
tasks.release periodic 3
algos replan
end
)";

constexpr const char* kReleaseOptimal = R"(sweep release-optimal
kinds chain fork spider
classes uniform
sizes 4 8
instances 12
times 4 8
leg-len 2 2
tasks 64 256
deadlines 100 200 400
tasks.arrival poisson 4
tasks.arrival bursts 8 24
tasks.release periodic 3
algos optimal
end
)";

constexpr const char* kReleaseTree = R"(sweep release-tree
kinds tree
classes uniform comm-bound
sizes 8 16
instances 30
times 4 8
depth-bias 0.25
tasks 64 256
stream
tasks.sizes unit
tasks.arrival poisson 4
tasks.arrival bursts 8 24
tasks.release periodic 3
algos online-ect online-jsq online-round-robin online-random spider-cover
end
)";

constexpr const char* kReleaseTreeDecide = R"(sweep release-tree-decide
kinds tree
classes uniform
sizes 8
instances 10
times 4 8
depth-bias 0.25
tasks 64
deadlines 200
tasks.arrival poisson 4
algos online-ect
end
)";

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"exact-large",
       // The biggest cells first: workers claim them at the start of a
       // pass, so no lone worker finishes a 300 ms cell after the rest.
       {{kExactPeak, {}},
        {kExactTail, {}},
        {kExactBody, {}},
        {kExactMid, {}},
        {kExactTree, {}},
        {kExactTreeDecide, {}},
        {kExactStream, {CellMode::kStream}}},
       /*materialize=*/true,
       /*shards=*/1,
       /*pass_s=*/1.4},
      {"grid-journaled", {{kGrid, {}}}, /*materialize=*/false, /*shards=*/2, /*pass_s=*/0.75},
      {"online-release",
       {{kReleaseReplan, {CellMode::kStream}},
        {kReleaseOptimal, {}},
        {kReleaseTree, {}},
        {kReleaseTreeDecide, {}}},
       /*materialize=*/false,
       /*shards=*/1,
       /*pass_s=*/1.2},
  };
  return kWorkloads;
}

const Workload& find_workload(const std::string& name) {
  std::string known;
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return workload;
    known += known.empty() ? "" : ", ";
    known += workload.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " + known + ")");
}

std::vector<mst::scenario::Cell> build_grid(const Workload& workload, std::uint64_t seed) {
  std::vector<mst::scenario::Cell> grid;
  for (std::size_t p = 0; p < workload.parts.size(); ++p) {
    const Part& part = workload.parts[p];
    mst::scenario::SweepSpec spec = mst::scenario::parse_spec(part.spec);
    spec.seed = mst::scenario::derive_seed(seed, p);
    for (mst::scenario::Cell& cell : mst::scenario::expand(spec)) {
      bool kept = part.keep.empty();
      for (CellMode mode : part.keep) kept = kept || cell.mode == mode;
      if (!kept) continue;
      cell.index = grid.size();
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

mst::scenario::RunOptions run_options(const Workload& workload) {
  mst::scenario::RunOptions options;
  options.threads = 4;
  options.reps = 1;
  options.materialize = workload.materialize;
  options.check = workload.materialize;
  return options;
}

}  // namespace mstbench
