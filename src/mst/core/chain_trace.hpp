#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/comm_vector.hpp"

/// \file chain_trace.hpp
/// Instrumented backward construction: the chain kernel
/// (`core/kernels.hpp`) run with a trace sink, recording, for every task,
/// the hull/occupancy state and all `p` candidate communication vectors
/// considered.  Two consumers:
///   * the Lemma 1 property tests — the "no crossing" claim is about the
///     candidate vectors themselves, which the plain scheduler discards;
///   * `exp_algorithm_trace`, which replays the paper's Fig 2 construction
///     decision by decision.
///
/// Being the same loop as `ChainScheduler::build_backward`, the traced run
/// places exactly the same tasks.  The kernel compares destinations without
/// building their candidates (`core/chain_scheduler.hpp`), so the trace
/// rebuilds all `p` of them from its own copy of the hull/occupancy state:
/// tracing is the only `O(p²)`-per-task path left.

namespace mst {

/// One backward step (one task placed).
struct ChainTraceStep {
  std::vector<Time> hull_before;       ///< h (per link) before placing
  std::vector<Time> occupancy_before;  ///< o (per processor) before placing
  /// Candidate vector per destination k (index = destination processor,
  /// length = k+1).  Exactly the `kC(i)` of the paper's Fig 3.
  std::vector<CommVector> candidates;
  std::size_t chosen = 0;  ///< destination whose candidate won Definition 3
  ChainTask placed;        ///< the committed placement
};

/// Full trace of a backward run.  `steps[0]` is the *last* task of the
/// schedule (the first one the backward pass places).
struct ChainTrace {
  Chain chain;
  Time horizon = 0;
  std::vector<ChainTraceStep> steps;
  ChainSchedule schedule;  ///< identical to the untraced construction
};

/// Traced equivalent of `ChainScheduler::build_backward`.
// mstlint: allow-next-line(tests-only-api) -- test_chain_trace, test_output_digest's frozen trace
ChainTrace trace_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                          bool stop_on_negative);

/// Traced makespan form (horizon `T∞`, no stop, final shift applied to the
/// schedule only — step snapshots keep horizon-anchored times).
ChainTrace trace_schedule(const Chain& chain, std::size_t n);

}  // namespace mst
