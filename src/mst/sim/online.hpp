#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mst/platform/tree.hpp"
#include "mst/sim/platform_sim.hpp"

/// \file online.hpp
/// Online (no-lookahead) master policies — what deployed master-worker
/// runtimes actually do, run on the store-and-forward substrate.
///
/// The paper's algorithm plans the whole schedule offline; production
/// systems such as the SETI@home-style pools it motivates dispatch
/// reactively instead.  These policies quantify that gap in the HEUR
/// experiment:
///  * round-robin    — ignore heterogeneity entirely;
///  * random         — uniform destination (seeded, deterministic);
///  * JSQ            — join the slave with the least outstanding work,
///                     weighted by its processing time and path latency;
///  * ECT            — earliest estimated completion (forward greedy): the
///                     strongest online policy, exact estimates thanks to
///                     per-edge FIFO.
///
/// Each policy has one implementation, the stream policy of
/// `streaming.hpp` (`make_stream_policy`); `simulate_online` runs it
/// through the streaming driver, so the two entry points agree by
/// construction.

namespace mst::sim {

enum class OnlinePolicy {
  kRoundRobin,
  kRandom,
  kJoinShortestQueue,
  kEarliestCompletion,
};

std::string to_string(OnlinePolicy policy);

/// All policies, for sweep loops.
const std::vector<OnlinePolicy>& all_online_policies();

/// Simulate `n` tasks dispatched by `policy`.
///
/// Determinism contract: `seed` only matters for `kRandom` — the other
/// policies never read it, asserted by the seed-invariance test.  Score
/// ties in JSQ and ECT break toward the *smallest slave node id*: both scan
/// candidates in ascending NodeId order and move only on strict
/// improvement, so the result is a pure function of the tree and the
/// workload, invariant under permuting the evaluation order of equal-score
/// slaves (and, on tie-free instances, equivariant under relabeling the
/// slaves — asserted by the permutation-invariance test in
/// tests/test_online.cpp).  JSQ reads `DispatchContext::outstanding`, so a
/// task that ends exactly at a dispatch instant still counts against its
/// slave if its execution started after the dispatch's trigger (the
/// previous first-hop send, or the instant the master's port went idle),
/// and no longer counts if it started at or before it (`streaming.hpp`).
SimResult simulate_online(const Tree& tree, std::size_t n, OnlinePolicy policy,
                          std::uint64_t seed = 0);

/// Workload form: tasks arrive at the master at their release dates (online
/// arrivals), carry per-task sizes, and are dispatched in canonical
/// workload order.  The ECT estimator stays exact — it reads the driver's
/// own engine, which runs the size-scaled, release-gated recurrences.
SimResult simulate_online(const Tree& tree, const Workload& workload, OnlinePolicy policy,
                          std::uint64_t seed = 0);

}  // namespace mst::sim
