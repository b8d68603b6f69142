#pragma once

#include <cstddef>
#include <vector>

#include "mst/obs/observation.hpp"
#include "mst/platform/tree.hpp"
#include "mst/workload/workload.hpp"

/// \file platform_sim.hpp
/// Operational (event-driven) execution of master-slave tasking on a tree:
/// the replay oracle of the forward ASAP engine.
///
/// This is the library's store-and-forward network model: every node owns a
/// one-port sender (emissions to its children serialize), every link carries
/// one task at a time, intermediate nodes buffer and forward, destination
/// nodes queue tasks FIFO for their single processor.  Chains and spiders
/// embed via `tree_from_chain` / `tree_from_spider`, so the same simulator
/// cross-validates the analytic schedulers: feeding it the destination
/// sequence of an optimal schedule must reproduce the ASAP makespan exactly.
///
/// The run is a discrete-event loop on a virtual clock with three kinds of
/// event — the master's dispatch, a hop's end and an execution's end —
/// fired in time order, ties in the order they were queued.  No wall clock
/// and no threads: every run is exactly reproducible.
///
/// Stream runs are timed on the forward ASAP engine (`tree_asap.hpp`,
/// driven by `drive_stream`), which places every emission, hop and
/// execution at its earliest feasible time.  This loop only replays fixed
/// destination sequences: as the independent check the tests hold the
/// engine to and, with an observation attached, for the Gantt trace and the
/// event and queue metrics that only it records.

namespace mst::sim {

/// Per-task observable outcome.
struct SimTask {
  NodeId dest = 0;
  Time release = 0;          ///< when the task arrived at the master
  Time master_emission = 0;  ///< when the master started sending it
  Time arrival = 0;          ///< full reception at the destination
  Time start = 0;            ///< execution start
  Time end = 0;              ///< execution end

  friend bool operator==(const SimTask&, const SimTask&) = default;
};

/// Outcome of one simulation run.  Equality is bit-for-bit over the whole
/// timeline — the streaming equivalence tests rely on it.
struct SimResult {
  Time makespan = 0;
  std::vector<SimTask> tasks;                ///< in dispatch order
  std::vector<std::size_t> tasks_per_node;   ///< indexed by NodeId

  [[nodiscard]] std::size_t num_tasks() const { return tasks.size(); }

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// Simulate dispatching tasks to the given fixed destinations, in order,
/// each emitted by the master as soon as its out-port frees and no earlier
/// than its release date (the port sits idle until the task arrives).  A
/// task occupies every link for `size·c` and its processor for `size·w`.
///
/// Every entry point takes an optional `obs::Observation`.  With a metrics
/// registry attached the run records event counts (`sim.engine.events`),
/// completed tasks and per-node queue high-water marks; with a trace sink
/// attached it records the paper's Figure-2 Gantt on the sim clock —
/// compute spans per slave, communication spans per link, master emission
/// instants.  Both default to off, in which case the instrumentation is
/// null checks only.
SimResult simulate_dispatch(const Tree& tree, const std::vector<NodeId>& dests,
                            const obs::Observation& observation = {});

/// Workload form of the above; requires `workload.count() == dests.size()`.
SimResult simulate_dispatch(const Tree& tree, const std::vector<NodeId>& dests,
                            const Workload& workload, const obs::Observation& observation = {});

/// The workload form on the destinations of `run`, a timeline of
/// `workload` on `tree` timed elsewhere: how a stream run, timed on the
/// forward ASAP engine (`drive_stream`), gets its Gantt trace, event counts
/// and queue gauges.  Allocates exactly as often as `simulate_dispatch` of
/// the same destinations.
SimResult replay_dispatch(const Tree& tree, const SimResult& run, const Workload& workload,
                          const obs::Observation& observation);

}  // namespace mst::sim
