#include "mst/core/chain_trace.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/kernels.hpp"

namespace mst {

namespace {

/// Records every step of the backward construction: the state before it,
/// all `p` candidates and the committed placement.  The kernel builds only
/// the winner, so the sink keeps the paper's hull/occupancy state itself and
/// rebuilds every candidate from it with the Fig 3 recurrence — `O(p²)` per
/// task, paid by tracing alone.
struct TraceSink {
  const Chain& chain;
  std::vector<ChainTraceStep>& steps;
  std::vector<Time> hull;
  std::vector<Time> occupancy;

  void place(std::size_t dest, Time start, const Time* best) {
    const std::size_t p = chain.size();
    ChainTraceStep step;
    step.hull_before = hull;
    step.occupancy_before = occupancy;
    step.candidates.resize(p);
    for (std::size_t k = 0; k < p; ++k) {
      CommVector& candidate = step.candidates[k];
      candidate.resize(k + 1);
      candidate[k] =
          std::min(occupancy[k] - chain.work(k) - chain.comm(k), hull[k] - chain.comm(k));
      for (std::size_t j1 = k; j1 >= 1; --j1) {
        const std::size_t j = j1 - 1;
        candidate[j] = std::min(candidate[j + 1] - chain.comm(j), hull[j] - chain.comm(j));
      }
    }
    step.chosen = dest;
    step.placed = ChainTask{dest, start, CommVector(best, best + dest + 1)};
    steps.push_back(std::move(step));
    occupancy[dest] = start;
    std::copy(best, best + dest + 1, hull.begin());
  }
};

}  // namespace

ChainTrace trace_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                          bool stop_on_negative) {
  ChainTrace trace;
  trace.chain = chain;
  trace.horizon = horizon;
  ChainCountScratch scratch;
  TraceSink sink{chain, trace.steps, std::vector<Time>(chain.size(), horizon),
                 std::vector<Time>(chain.size(), horizon)};
  detail::backward_construction(chain, horizon, max_tasks, stop_on_negative, scratch, sink);

  // Steps run from the last task backward; the schedule lists tasks in
  // first-link emission order.
  trace.schedule.chain = chain;
  for (auto step = trace.steps.rbegin(); step != trace.steps.rend(); ++step) {
    trace.schedule.tasks.push_back(step->placed);
  }
  return trace;
}

ChainTrace trace_schedule(const Chain& chain, std::size_t n) {
  MST_REQUIRE(n >= 1, "trace needs at least one task");
  ChainTrace trace = trace_backward(chain, chain.t_infinity(n), n, /*stop_on_negative=*/false);
  MST_ASSERT(trace.schedule.tasks.size() == n);
  const Time shift = trace.schedule.tasks.front().emissions.front();
  MST_ASSERT(shift >= 0);
  trace.schedule.shift(-shift);
  return trace;
}

}  // namespace mst
