#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "mst/api/registry.hpp"
#include "mst/platform/any.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"

/// \file stream.hpp
/// The registry bridge for streaming (no-lookahead) solves.
///
/// The streaming driver and its policies live in `mst/sim/streaming.hpp`,
/// strictly below the api layer; this module owns everything that needs the
/// registry — the capability gate, algorithm-name resolution, and the exact
/// offline reference that turns a streamed makespan into a regret.

namespace mst::api {

/// One streaming solve, resolved through the registry.
struct StreamOutcome {
  std::string algorithm;
  PlatformKind kind = PlatformKind::kChain;
  std::size_t tasks = 0;
  Time makespan = 0;
  sim::StreamMetrics metrics;
  /// Exact offline optimum of the same workload (the registered "optimal"
  /// entry of the platform's kind, when it exists, is provably optimal and
  /// supports the workload's features).  0 = no exact reference — trees
  /// always, and released fork/spider streams too: their positional-release
  /// selection is not exact (the exhaustive oracle beats it on some
  /// instances), so regret against it would be meaningless.
  Time offline_makespan = 0;
  /// Competitive ratio `makespan / offline_makespan` (>= 1).  Negative =
  /// unavailable: no exact offline reference, or a degenerate zero-makespan
  /// run — the reporters print the sentinel as an empty cell instead of
  /// ever leaking `inf`/`nan` into CSV/JSON.
  double regret = -1;
  sim::SimResult sim;  ///< full per-task timeline, dispatch order

  /// Tasks per unit time; same degenerate-platform sentinel semantics as
  /// `SolveResult::throughput` (+inf on nonempty zero-makespan runs).
  [[nodiscard]] double throughput() const;
};

/// Streams `workload` through the named algorithm: capability check
/// (`supports.streaming` plus the workload's features — rejected up front
/// with a `std::invalid_argument` naming the remedy), policy construction
/// (`replan` or an `online-*` adaptation), driver run, metrics and regret.
/// Deterministic per (platform, algorithm, workload, seed).
/// `attach_reference = false` skips the offline reference solve (regret
/// stays the sentinel) — for timed repetitions that must measure the
/// streamed run alone; attach it once afterwards with
/// `attach_offline_reference`.  `observation` (optional, defaulted off)
/// instruments the streamed run: the simulator's Gantt/queue signals, the
/// streaming layer's arrival/latency/backlog signals, the policy's work
/// counts (`StreamPolicy::count_work`) and an "api.stream.runs" counter.
StreamOutcome run_stream(const Platform& platform, std::string_view algorithm,
                         const Workload& workload, std::uint64_t seed = 1,
                         const Registry& registry = api::registry(),
                         bool attach_reference = true,
                         const obs::Observation& observation = {});

/// Computes `outcome.offline_makespan` / `outcome.regret` for a run of
/// `workload` on `platform` (see `StreamOutcome::offline_makespan` for
/// when a reference exists).  Idempotent; no-op on empty runs.  `metrics`
/// (optional) counts the reference solve through the registry's
/// per-algorithm dispatch counters.
void attach_offline_reference(StreamOutcome& outcome, const Platform& platform,
                              const Workload& workload,
                              const Registry& registry = api::registry(),
                              obs::MetricsRegistry* metrics = nullptr);

}  // namespace mst::api
