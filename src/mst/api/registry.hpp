#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mst/common/time.hpp"
#include "mst/platform/any.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file registry.hpp
/// Uniform dispatch over every scheduler in the library.
///
/// The core algorithms (`ChainScheduler`, `SpiderScheduler`, ...), the
/// baselines and the tree heuristics each grew their own entry point; the
/// CLI, the experiment drivers and the tests all hard-coded those calls.
/// This module puts one API in front of all of them:
///
///     const api::SolveResult r =
///         api::registry().solve(platform, "forward-greedy", n);
///
/// The registry is a table of entries `{AlgorithmInfo, SolveFn, DecisionFn}`
/// keyed by `(PlatformKind, name)` and enumerable, so a new algorithm
/// becomes visible to `mstctl --mode=list`, the experiment sweeps and the
/// registry test through a single `add()` call — no per-consumer wiring.
/// An entry's functions only solve; every rule shared by all entries (kind,
/// capability, task limit, scratch, payload stripping, result stamping) is
/// applied once per dispatch by the registry (see `Registry`).
///
/// Both of the paper's equivalent problem statements are exposed:
///
///  * makespan form — schedule a whole workload as fast as possible
///    (`solve`; the classic `n` identical tasks are `Workload::identical(n)`
///    and keep their historical entry points bit-for-bit), and
///  * decision form — schedule as many tasks as possible within a deadline
///    `T` (`solve_within` / `max_tasks`), drawing either from the unbounded
///    identical stream (default) or from a finite `SolveOptions::workload`.
///
/// Every entry supports the decision form: algorithms with a native decision
/// procedure (the chain backward construction, the fork/spider virtual-node
/// selections, the brute-force oracles) register it directly.  So do the
/// prefix-stable entries on the forward-ASAP engine, whose `k`-task run is
/// the first `k` tasks of any longer run: tree `forward-greedy`, chain,
/// fork and spider `forward-greedy` and `round-robin`, and chain
/// `periodic`.  They answer in one pass, one run stopped before the first
/// task that would complete after the deadline.  Every other entry
/// (`single-node`, `local-search`, `spider-cover`, `replan` and the tree
/// `online-*` policies) inherits an adapter that inverts its makespan form
/// by exponential + binary search, which is exact whenever the makespan is
/// monotone in the task count (true for all built-ins).  For finite
/// workloads the adapter probes canonical prefixes instead of counts.
///
/// Workload generality is opt-in per algorithm: `AlgorithmInfo::supports`
/// declares which features (non-uniform sizes, release dates) an entry can
/// handle, and `Registry::solve*` rejects unsupported workloads with a
/// clear `std::invalid_argument` instead of silently mis-scheduling.

namespace mst::obs {
class MetricsRegistry;
}  // namespace mst::obs

namespace mst::api {

// ---------------------------------------------------------------------------
// Platforms
//
// The topology-erased `Platform` variant and its kind enum live in the
// platform layer (`mst/platform/any.hpp`) so the simulator and analysis
// modules can use them without depending upward on the registry.  The
// re-exports below keep every historical `api::Platform` spelling working.

using mst::all_platform_kinds;
using mst::describe;
using mst::kind_of;
using mst::num_processors;
using mst::Platform;
using mst::platform_kind_from;
using mst::PlatformKind;
using mst::to_string;

// ---------------------------------------------------------------------------
// Results

/// Dispatch plan on a tree: the destination sequence in master-emission
/// order.  Tree heuristics do not produce link-level timing vectors, so the
/// plan is validated by operational replay (`sim::simulate_dispatch`).
struct TreeDispatch {
  Tree tree;
  std::vector<NodeId> dests;

  friend bool operator==(const TreeDispatch&, const TreeDispatch&) = default;
};

/// Whichever concrete schedule the algorithm produced.  `monostate` means
/// the algorithm reports a makespan without materializing placements.  A
/// fork algorithm produces the `SpiderSchedule` of the fork's unit-leg
/// spider (`Spider::from_fork`: slave `i` is leg `i`).
using AnySchedule = std::variant<std::monostate, ChainSchedule, SpiderSchedule, TreeDispatch>;

struct SolveScratch;  // solve_scratch.hpp: borrowed cross-solve buffers

/// Per-call knobs, carried by every registry solve.  Defaults reproduce the
/// historical behaviour, so `solve(platform, algorithm, n)` call sites never
/// change.
struct SolveOptions {
  /// When false, the algorithm may skip building placement vectors and
  /// return a `monostate` schedule — the count/makespan-only fast path for
  /// sweeps.  `check_feasibility` flags such results as unchecked.
  bool materialize = true;
  /// Seed for randomized policies (currently only the tree `online-random`
  /// entry); deterministic per (platform, n, seed).
  std::uint64_t seed = 1;
  /// Upper bound on the task count explored by decision-form solves (both
  /// the native counting procedures and the makespan-inversion adapter),
  /// and the largest task count a makespan solve accepts — larger
  /// workloads are rejected with `std::invalid_argument` before any
  /// instance is built.
  std::size_t cap = 1u << 20;
  /// Decision-form task pool.  Null (default) keeps the historical
  /// semantics — an unbounded stream of identical tasks, capped by `cap`.
  /// When set, `solve_within` selects from this finite workload instead
  /// (release dates and all), and the effective cap is
  /// `min(cap, workload->count())`.  Shared pointer so copying options per
  /// cell stays cheap in sweeps.
  std::shared_ptr<const Workload> workload;
  /// Optional, borrowed metrics sink.  When set, registry dispatch counts
  /// solves per algorithm and the decision-form adapter counts its
  /// makespan-inversion probes; every metric recorded through this pointer
  /// is deterministic-class (pure function of the inputs).  The caller owns
  /// the registry and keeps it alive for the call.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional, borrowed cross-solve scratch (`solve_scratch.hpp`).  Every
  /// entry runs on a scratch — this one when set, else a local one the
  /// registry builds for the call.  A caller-kept scratch
  /// stays warm across solves, which then become allocation-free — recycle
  /// each consumed result back via `SolveScratch::recycle` to close the
  /// loop.  Results are bit-identical with and without scratch.  Not
  /// thread-safe: one scratch serves one thread at a time; the caller owns
  /// it and keeps it alive for the call.
  SolveScratch* scratch = nullptr;
};

/// Uniform outcome of the makespan form `Registry::solve`: the schedule plus
/// the metrics the experiment tables need.
struct SolveResult {
  std::string algorithm;    ///< registry name that produced this
  PlatformKind kind = PlatformKind::kChain;
  std::size_t tasks = 0;    ///< tasks actually scheduled (== workload count)
  Time makespan = 0;
  Time lower_bound = 0;     ///< steady-state makespan lower bound (0: none)
  bool optimal = false;     ///< guaranteed optimal by construction
  AnySchedule schedule;
  /// The workload this result scheduled, in canonical order — schedule task
  /// `i` is workload task `i`.  Feasibility checking scales and gates by it.
  Workload workload;

  /// Tasks per unit time, `tasks / makespan`.  0 for empty results; +inf for
  /// the degenerate "nonempty schedule in zero time" case, so sweep tables
  /// show the anomaly instead of silently ranking the platform last.
  [[nodiscard]] double throughput() const;
};

/// Outcome of the decision form `solve_within(platform, T)`: the maximum
/// number of tasks completable by the deadline, plus the witness schedule
/// when materialization was requested.
struct DecisionResult {
  std::string algorithm;    ///< registry name that produced this
  PlatformKind kind = PlatformKind::kChain;
  Time deadline = 0;        ///< the queried window `T`
  std::size_t tasks = 0;    ///< tasks completing within the window
  Time makespan = 0;        ///< completion time achieved (`<= deadline`)
  /// The count is provably maximal.  Always false when the search stopped
  /// at `SolveOptions::cap` — a truncated count proves nothing.
  bool optimal = false;
  AnySchedule schedule;     ///< `monostate` unless options.materialize
  /// The tasks that made the count: the canonical `tasks`-prefix of the
  /// pool (`SolveOptions::workload`), or `Workload::identical(tasks)` for
  /// the identical stream.  Filled by the registry dispatch.
  Workload workload;

  /// Window utilization, `tasks / deadline` (0 for an empty window).
  [[nodiscard]] double throughput() const;
};

/// Validates the materialized schedule: Definition 1 conditions for chain /
/// spider payloads (a fork's is its unit-leg spider's), operational replay
/// for tree dispatch plans (replayed makespan must not exceed the reported
/// one), and task-count consistency.  A `monostate` payload yields an "unchecked" violation so
/// callers never mistake makespan-only results for verified ones, and a
/// nonempty result claiming a non-positive makespan is rejected outright.
FeasibilityReport check_feasibility(const SolveResult& result);

/// Decision-form variant: the same payload checks, plus `makespan <=
/// deadline`.  An empty result (`tasks == 0`) with no payload is valid — it
/// asserts that nothing fits in the window.
FeasibilityReport check_feasibility(const DecisionResult& result);

// ---------------------------------------------------------------------------
// Entries and the registry

/// Metadata shown by `mstctl --mode=list` and used by sweeps to filter.
struct AlgorithmInfo {
  PlatformKind kind = PlatformKind::kChain;
  std::string name;       ///< unique within the kind, e.g. "forward-greedy"
  std::string summary;    ///< one-line description
  bool optimal = false;   ///< produces provably optimal makespans
  bool exponential = false;  ///< worst-case exponential (brute force) —
                             ///< sweeps over large `n` should skip these
  /// Workload features this entry handles (identical-only by default).
  /// `Registry::solve*` rejects workloads outside this set up front, and
  /// the sweep expander pairs workload generators only with entries that
  /// support them.
  WorkloadFeatures supports{};
};

/// An entry's makespan form.  It sees only what the registry's gate let
/// through: a platform of the entry's kind (take it with `std::get`), a
/// nonempty workload within `SolveOptions::cap` and the entry's `supports`,
/// and options whose `scratch` is set.  It returns `tasks`, `makespan`,
/// `lower_bound` and the schedule; it may return a payload even when
/// `materialize` is off.
using SolveFn = std::function<SolveResult(const Platform&, const Workload&, const SolveOptions&)>;

/// An entry's native decision form: the count, completion time and witness
/// schedule for `deadline`, drawn from `options.workload` when set (within
/// the entry's `supports`) or from the identical stream, at most
/// `options.cap` tasks.  Same platform and scratch guarantees as `SolveFn`.
/// Entries without one answer through the makespan-inversion adapter.
using DecisionFn = std::function<DecisionResult(const Platform&, Time, const SolveOptions&)>;

/// The algorithm table.  `registry()` returns the process-wide instance with
/// every built-in scheduler pre-registered; tests may also construct empty
/// registries of their own.
///
/// Dispatch looks the entry up once, by `(kind_of(platform), name)`, so an
/// entry never sees a platform of another kind, and applies every
/// per-entry rule in one gate, in this order: the capability gate
/// (`supports`), the `api.solve.<algo>` / `api.decide.<algo>` counter, the
/// unknown-name error, then, for the makespan form, `SolveOptions::cap` and
/// the empty-workload check.  It then provisions a scratch, runs the
/// entry, strips the payload back into the scratch when `materialize` is
/// off, and stamps `algorithm`, `kind`, `workload` and `optimal` (and, in
/// the decision form, `deadline`) from the entry.  A decision's `optimal`
/// is `info.optimal` unless the search stopped at the cap short of a finite
/// pool — a truncated count proves nothing.
class Registry {
 public:
  /// An empty registry (no built-ins).
  Registry() = default;

  /// The process-wide registry, built-ins registered on first use.
  static Registry& instance();

  /// Registers an algorithm — the extension point:
  ///   registry().add(info, [](const Platform& p, const Workload& w,
  ///                           const SolveOptions& opts) {...});
  /// Without `decide`, the decision form inverts the makespan form by
  /// exponential + binary search (exact for makespans monotone in the task
  /// count; with a finite pool it probes canonical prefixes).  Throws
  /// `std::invalid_argument` if `(info.kind, info.name)` is already taken,
  /// the name is empty or `solve` is null.
  void add(AlgorithmInfo info, SolveFn solve, DecisionFn decide = nullptr);

  /// Lookup; null when absent.
  [[nodiscard]] const AlgorithmInfo* info(PlatformKind kind, std::string_view name) const;

  /// All registered algorithms, in registration order.
  [[nodiscard]] std::vector<AlgorithmInfo> list() const;
  /// Algorithms for one kind, in registration order.
  [[nodiscard]] std::vector<AlgorithmInfo> list(PlatformKind kind) const;
  /// Names for one kind, in registration order.
  [[nodiscard]] std::vector<std::string> names(PlatformKind kind) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// True iff the named algorithm exists for `kind` and declares support
  /// for every feature in `features`.  The sweep expander's pairing test.
  [[nodiscard]] bool supports(PlatformKind kind, std::string_view name,
                              const WorkloadFeatures& features) const;

  /// Makespan form: schedules the whole nonempty workload with the entry
  /// `(kind_of(platform), algorithm)`.  Throws `std::invalid_argument`
  /// naming the known algorithms when the lookup fails, a feature-naming
  /// message when the workload uses features the entry does not declare in
  /// `supports`, and on an empty workload or one above `options.cap`.
  [[nodiscard]] SolveResult solve(const Platform& platform, std::string_view algorithm,
                                  const Workload& workload,
                                  const SolveOptions& options = {}) const;

  /// The paper's classic form; exactly `solve(platform, algorithm,
  /// Workload::identical(n), options)`.
  [[nodiscard]] SolveResult solve(const Platform& platform, std::string_view algorithm,
                                  std::size_t n, const SolveOptions& options = {}) const;

  /// Decision form: the maximum number of tasks completable within
  /// `deadline` — at most `options.cap`, drawn from `options.workload` when
  /// set (its canonical prefixes, checked against the entry's `supports`)
  /// or from the unbounded identical stream — with a witness schedule when
  /// `options.materialize`.
  [[nodiscard]] DecisionResult solve_within(const Platform& platform, std::string_view algorithm,
                                            Time deadline, const SolveOptions& options = {}) const;

  /// Count-only decision-form dispatch: `solve_within` with
  /// `materialize = false` (same capability gate and metrics), returning
  /// the count.
  [[nodiscard]] std::size_t max_tasks(const Platform& platform, std::string_view algorithm,
                                      Time deadline, const SolveOptions& options = {}) const;

 private:
  struct Entry {
    AlgorithmInfo info;
    SolveFn solve;
    DecisionFn decide;  ///< null: the makespan-inversion adapter
  };
  [[nodiscard]] const Entry* entry(PlatformKind kind, std::string_view name) const;
  /// The one lookup of a dispatch and the checks both forms share, in
  /// order: the capability gate on `workload` (when given), the `counter`
  /// prefix's per-algorithm counter, and the unknown-name error.
  [[nodiscard]] const Entry& resolve(const Platform& platform, std::string_view algorithm,
                                     const Workload* workload, const char* counter,
                                     obs::MetricsRegistry* metrics) const;
  std::vector<Entry> entries_;
};

/// Shorthand for `Registry::instance()`.
Registry& registry();

/// The kind's conventional default in `registry()`: "optimal" where an
/// exact algorithm is registered, else the first registered entry (trees:
/// "spider-cover").  Throws `std::invalid_argument` when the kind has no
/// entries.  Shared by `mstctl` and the analysis curves.
std::string default_algorithm(PlatformKind kind);

}  // namespace mst::api
