#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/platform/any.hpp"
#include "mst/platform/tree.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/workload/workload.hpp"

/// \file streaming.hpp
/// Streaming (no-lookahead) scheduling: the task count `n` is unknown.
///
/// The paper plans the whole schedule offline with `n` known.  This module
/// models the deployed master-worker pools the paper motivates: a
/// `StreamPolicy` observes tasks strictly one at a time, as their release
/// dates pass on the simulated clock, and never learns the total task count
/// or any future release date.  The driver — not policy discipline — enforces that: the
/// policy has no reference to the `Workload`; every fact it ever receives
/// arrives through `observe` or the present-state `DispatchContext`, and the
/// driver only reveals tasks whose release date has passed.
///
/// The driver times the run on the forward ASAP engine (`TreeAsapState`,
/// `tree_asap.hpp`): each dispatch instant is `max(master port free,
/// release)`, and every hop and execution of the chosen destination lands
/// at its earliest feasible time — the simulator's timing exactly, since
/// the master is the only source and every port forwards FIFO.  The
/// discrete-event simulator (`platform_sim.hpp`) is kept as the replay
/// oracle: the tests hold every policy's timeline equal to its replay, and
/// an observed run replays its destinations through it for the Gantt trace
/// and the event and queue metrics.
///
/// Policies:
///  * the four `OnlinePolicy` dispatchers (`make_stream_policy`) — their
///    only implementation: `simulate_online` runs these policies through
///    `drive_stream`;
///  * `replan` (`make_replan_policy`) — horizon re-planning: after every
///    arrival batch, dispatch follows the exact chain/fork/spider plan of the
///    currently known, still-undispatched backlog, in master-emission order,
///    until the next arrival invalidates it.  That plan depends only on the
///    platform and the backlog size, so the policy reads it from a plan it
///    already holds where it can (a chain's plans are suffixes of one longer
///    plan; a fork's or spider's last plan restarts when the backlog size
///    repeats) and re-solves otherwise.  With everything released at 0 this
///    degenerates to the offline optimum (one plan over the whole instance).
///
/// The registry's streaming entries run these policies through the driver
/// (makespan form); the registry bridge (`api::run_stream`, in
/// `mst/api/stream.hpp`)
/// resolves a `(platform kind, algorithm)` pair whose
/// `AlgorithmInfo::supports.streaming` flag is set, embeds the platform
/// into the store-and-forward tree substrate, runs this driver and computes
/// the streaming metrics — per-task latency, master backlog and the regret
/// against the exact offline optimum where one is registered.  This module
/// itself stays registry-free: the policies and the driver live strictly
/// below the api layer.

namespace mst::sim {

/// One task, as the policy learns about it: everything the master knows the
/// moment the task arrives, and nothing more.  `task` is the arrival
/// ordinal (== the canonical workload index, but the policy cannot tell).
struct StreamArrival {
  std::size_t task = 0;
  Time size = 1;
  Time release = 0;

  friend bool operator==(const StreamArrival&, const StreamArrival&) = default;
};

/// What a dispatcher may observe when choosing a destination: the virtual
/// clock; per node, the number of tasks assigned to it that have not
/// finished executing yet (in flight, buffered or running); the driver's
/// engine, read-only, which holds every dispatch so far; and the task being
/// dispatched as it was observed, so a policy need not keep its arrivals.
///
/// A dispatch at `now` has a trigger: the instant the previous task's
/// first-hop send began, or, when the dispatch waited for a release date,
/// the instant the master's port went idle.  A task whose execution ends
/// exactly at `now` has finished if it started at or before the trigger,
/// and is still outstanding if it started after it.  That is the event
/// loop's firing order (`platform_sim.hpp`: ties in the order events were
/// queued, an execution's end queued when it began, a dispatch at its
/// trigger) wherever that order is fixed.  Where the execution began at the
/// trigger itself, the loop's order depends on how earlier events were
/// queued, and the rule counts the task finished.  Example (pinned by
/// `Online.TaskEndingAtDispatchIsDoneIfItStartedAtThePreviousSend`): on the
/// tree 1:(0,2,4) 2:(1,1,7) 3:(2,2,4) 4:(1,1,6) 5:(4,1,4) 6:(0,1,8)
/// (`node:(parent, c, w)`) with sizes {1,1,1,2,2} under JSQ, task 4 is
/// dispatched at 10, when task 1 ends on node 5.  Task 1 started at 6, the
/// instant task 3's send began, so it has finished and task 4 goes to node
/// 5.  The event loop began that send before task 1's last hop landed at
/// the same instant, so it queued the dispatch before the execution's end,
/// counted task 1 outstanding and sent task 4 to node 4.
struct DispatchContext {
  Time now = 0;
  const std::vector<std::size_t>& outstanding;
  const TreeAsapState& engine;
  StreamArrival arrival;
};

/// A no-lookahead dispatcher.  The driver calls `observe` once per task, in
/// arrival order, never before the simulated clock reaches the task's
/// release date; it calls `choose` when the master's out-port is free and
/// the oldest observed task is still undispatched.  Policies are stateful
/// and single-run: construct a fresh one per simulation.
class StreamPolicy {
 public:
  virtual ~StreamPolicy() = default;

  /// A new task became known at the master.
  virtual void observe(const StreamArrival& arrival) = 0;

  /// Destination (a slave NodeId) for `task`, the oldest undispatched
  /// observed task.  `ctx` carries the clock and per-node in-flight counts
  /// — present-state information only.
  virtual NodeId choose(std::size_t task, const DispatchContext& ctx) = 0;

  /// Adds the policy's deterministic work counts so far to `metrics`:
  /// `sim.replan.plans`, `sim.replan.solves`, `sim.replan.probes` and
  /// `sim.replan.ranks` for `replan`,
  /// `core.asap.ect_nodes` for the earliest-completion dispatcher, nothing
  /// for the other online dispatchers.  The api layer folds them after a run
  /// (`api::run_stream`), so the driver's own metrics stay policy-free.
  virtual void count_work(obs::MetricsRegistry& /*metrics*/) const {}
};

/// Aggregate streaming metrics, computed by the driver.
struct StreamMetrics {
  /// Per task (canonical order): completion minus release — how long the
  /// task spent in the system.  Always >= 0.
  std::vector<Time> latency;
  Time max_latency = 0;
  double mean_latency = 0;
  /// Largest number of tasks that had arrived at the master but whose first
  /// emission had not started yet (arrivals count before departures at
  /// equal times, so any nonempty run peaks at >= 1).
  std::size_t peak_backlog = 0;

  friend bool operator==(const StreamMetrics&, const StreamMetrics&) = default;
};

/// Outcome of one streaming run: the operational timeline plus the metrics.
struct StreamResult {
  SimResult sim;
  StreamMetrics metrics;
};

/// The driver: runs `policy` over the workload's arrival stream on `tree`
/// and returns the operational timeline.  Dispatch is FIFO in arrival order
/// (tasks are interchangeable up to their observed size, and the master
/// serves its backlog in order); the policy only picks destinations.
/// `tree` must outlive the call.  Beyond the result the driver holds
/// `O(|V|)` state plus one heap entry per task in flight, and its per-task
/// loop allocates nothing while those entries fit the `|V|` it reserves.
/// `observation` (optional, defaulted off) replays the chosen destinations
/// through the event loop (`replay_dispatch`), which records its Gantt and
/// queue metrics and must reproduce the engine's timeline.
SimResult drive_stream(const Tree& tree, const Workload& workload, StreamPolicy& policy,
                       const obs::Observation& observation = {});

/// The driver plus the streaming metrics.  With `observation` the streaming
/// layer also adds arrival counts, a latency histogram and backlog gauges
/// to the registry plus per-task arrival instants and a backlog counter
/// series to the trace — all on the simulated clock.
StreamResult simulate_stream(const Tree& tree, const Workload& workload, StreamPolicy& policy,
                             const obs::Observation& observation = {});

/// Adapts one of the four online dispatchers to the streaming interface.
/// `tree` must outlive the returned policy; `seed` only matters for
/// `kRandom` (`online.hpp` documents the tie-breaking contract the others
/// inherit).
std::unique_ptr<StreamPolicy> make_stream_policy(const Tree& tree, OnlinePolicy policy,
                                                 std::uint64_t seed = 0);

/// The horizon re-planning policy for a chain, fork or spider platform
/// (throws `std::invalid_argument` for trees — no exact tree solver
/// exists).  Uniform task sizes only: the exact solvers' optimality proofs
/// do not cover sizes, and the registry gate rejects them up front.
std::unique_ptr<StreamPolicy> make_replan_policy(const Platform& platform);

/// The store-and-forward substrate a platform streams on: chains and
/// spiders embed via `tree_from_chain` / `tree_from_spider`, forks via
/// their spider form, trees are returned as-is.  Slave numbering follows
/// the embeddings (chain processor `i` is node `i + 1`; spider leg `l`
/// depth `d` is node `1 + sum(len of legs < l) + d`).
Tree stream_substrate(const Platform& platform);

/// Constructs the streaming policy a registry algorithm name denotes:
/// `replan` or one of the four `online-*` adaptations.  Throws
/// `std::logic_error` for any other name — callers gate on the registry's
/// `supports.streaming` flag first (`api::run_stream` does).
std::unique_ptr<StreamPolicy> make_named_policy(const Platform& platform, const Tree& substrate,
                                                std::string_view algorithm, std::uint64_t seed);

}  // namespace mst::sim
