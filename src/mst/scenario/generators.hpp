#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/time.hpp"
#include "mst/platform/generator.hpp"
#include "mst/scenario/spec.hpp"

/// \file generators.hpp
/// Seeded platform families and the expansion of a `SweepSpec` into its
/// deterministic cell grid.
///
/// Determinism contract: a `(PlatformSpec, seed)` pair fully determines the
/// instance, and `expand` derives every platform seed and per-cell solve
/// seed from `SweepSpec::seed` by stable mixing — never from global state —
/// so the grid is byte-identical across runs, platforms, and (because the
/// runner writes results by cell index) thread counts.

namespace mst::scenario {

/// One point of the generator grid: everything needed to synthesize a
/// platform except the seed.
struct PlatformSpec {
  api::PlatformKind kind = api::PlatformKind::kChain;
  PlatformClass cls = PlatformClass::kUniform;
  std::size_t size = 1;         ///< processors (chain/fork), legs (spider), slaves (tree)
  Time lo = 1;
  Time hi = 10;
  std::size_t min_leg_len = 1;  ///< spiders only
  std::size_t max_leg_len = 3;
  double depth_bias = 0.0;      ///< trees only

  friend bool operator==(const PlatformSpec&, const PlatformSpec&) = default;
};

/// Synthesizes the platform; same (spec, seed) → identical platform.
api::Platform make_platform(const PlatformSpec& spec, std::uint64_t seed);

/// Stable seed derivation (SplitMix64 mixing).  Exposed so experiment
/// drivers can derive per-trial seeds the same way the expander does.
std::uint64_t derive_seed(std::uint64_t root, std::uint64_t a, std::uint64_t b = 0,
                          std::uint64_t c = 0);

/// Which problem form a cell exercises.  `kStream` is the no-lookahead
/// driver of `sim/streaming.hpp`: the workload's release dates arrive
/// online and the policy never learns the task count — expanded only when
/// the spec sets `stream`, and only for algorithms whose
/// `AlgorithmInfo::supports.streaming` flag is set.
enum class CellMode { kSolve, kWithin, kStream };

std::string to_string(CellMode mode);

/// One unit of sweep work: a concrete platform, an algorithm name and one
/// point on a work axis.  Cells are self-contained — executing one touches
/// no shared mutable state (the platform is shared immutably among the
/// cells of one instance, so a grid of A algorithms × W work points holds
/// one platform, not A·W copies) — which is what makes the runner
/// embarrassingly parallel.
struct Cell {
  std::size_t index = 0;          ///< position in expansion order
  std::string spec_name;
  std::shared_ptr<const api::Platform> platform;  ///< never null after expand
  std::string kind;               ///< label: "chain" / "fork" / ...
  std::string cls;                ///< generator class label; "-" for explicit platforms
  std::size_t size = 0;           ///< generator size; num_processors for explicit
  std::size_t instance = 0;       ///< instance ordinal within the grid point
  std::uint64_t platform_seed = 0;  ///< 0 for explicit platforms
  std::string algorithm;
  CellMode mode = CellMode::kSolve;
  std::size_t n = 0;              ///< task count (0 on identical-stream kWithin cells)
  Time deadline = 0;              ///< kWithin: window length
  std::uint64_t seed = 0;         ///< per-cell `SolveOptions::seed`

  /// Workload axis point.  `workload` is null on identical-axis cells (the
  /// historical grid is byte-identical); otherwise the concrete generated
  /// workload, shared by every cell of the same (platform instance,
  /// generator, n).  `workload_label` is the generator's report label
  /// ("unit" on identical cells).
  std::shared_ptr<const Workload> workload;
  std::string workload_label = "unit";
  std::uint64_t workload_seed = 0;  ///< 0 on identical cells
};

/// A cell's key: every field but the live platform and workload, in the
/// order `grid_fingerprint` folds them.  A journal record names its cell by
/// these fields alone, and resumes it only when they all match.
inline auto key_fields(const Cell& cell) {
  return std::tie(cell.index, cell.spec_name, cell.kind, cell.cls, cell.size, cell.instance,
                  cell.platform_seed, cell.algorithm, cell.mode, cell.n, cell.deadline,
                  cell.seed, cell.workload_label, cell.workload_seed);
}

/// Expands the spec into its cell grid: explicit platforms first, then the
/// generator grid in (kind, class, size, instance) order; per platform, the
/// resolved algorithms each run, per workload generator, every `tasks`
/// entry, then every `deadlines` entry (crossed with `tasks` for
/// non-identical generators — the pool must be finite), then — when the
/// spec sets `stream` — every streaming cell over `tasks`, restricted to
/// entries with the streaming capability.  Algorithm
/// resolution: an empty list selects every registered non-exponential
/// algorithm of the platform's kind; an explicit name is applied to the
/// kinds that register it and must exist for at least one swept kind.
/// Non-identical workload generators pair only with algorithms whose
/// `AlgorithmInfo::supports` covers their features (the registry would
/// reject the others anyway; the expander just skips the doomed cells).
/// Each grid point (and each explicit platform) builds its platform once,
/// shared by all of that point's cells; a duplicate grid point (a repeated
/// class or size) generates its own copy from the same seed.  Throws
/// `std::invalid_argument` on empty or inconsistent specs.
std::vector<Cell> expand(const SweepSpec& spec,
                         const api::Registry& registry = api::registry());

}  // namespace mst::scenario
