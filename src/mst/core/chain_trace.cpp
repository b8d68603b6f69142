#include "mst/core/chain_trace.hpp"

#include "mst/common/assert.hpp"
#include "mst/core/kernels.hpp"

namespace mst {

namespace {

/// Records every step of the backward construction: the state before it,
/// all `p` candidates and the committed placement.
struct TraceSink {
  std::size_t p;
  std::vector<ChainTraceStep>& steps;
  std::vector<CommVector> candidates;

  void candidate(std::size_t dest, const Time* vec) {
    candidates[dest].assign(vec, vec + dest + 1);
  }
  void place(std::size_t dest, Time start, const Time* best, const Time* hull,
             const Time* occupancy) {
    ChainTraceStep step;
    step.hull_before.assign(hull, hull + p);
    step.occupancy_before.assign(occupancy, occupancy + p);
    step.candidates = candidates;
    step.chosen = dest;
    step.placed = ChainTask{dest, start, CommVector(best, best + dest + 1)};
    steps.push_back(std::move(step));
  }
};

}  // namespace

ChainTrace trace_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                          bool stop_on_negative) {
  ChainTrace trace;
  trace.chain = chain;
  trace.horizon = horizon;
  ChainCountScratch scratch;
  TraceSink sink{chain.size(), trace.steps, std::vector<CommVector>(chain.size())};
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
