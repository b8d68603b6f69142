#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/time.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/arrival.hpp"

/// \file spec.hpp
/// Declarative sweep specifications — the input language of the scenario
/// engine.
///
/// The paper's results are parameter sweeps: curves over families of chain,
/// fork, spider and tree platforms.  A `SweepSpec` states such a family
/// once — which platform kinds, which heterogeneity classes, which sizes,
/// how many seeded instances, which task counts / deadlines, which
/// algorithms — and the engine expands it into a deterministic grid of
/// cells (`generators.hpp`), executes the grid on a thread pool
/// (`runner.hpp`) and renders long-form tables (`report.hpp`).  A new
/// workload is one generator plus one spec; `mstctl --mode=sweep` runs spec
/// files without recompiling.
///
/// Text format (line oriented, `#` starts a comment, `end` closes the
/// spec):
///
///     sweep <name>
///     seed <u64>
///     kinds chain fork spider tree
///     classes uniform comm-bound
///     sizes 2 4 8
///     instances 3
///     times 1 10            # per-processor c/w draw range [lo, hi]
///     leg-len 1 3           # spider leg length range
///     depth-bias 0.5        # tree shape: 0 = bushy/random, 1 = chain
///     tasks 8 32            # makespan-form cells (solve n tasks)
///     deadlines 40 80       # decision-form cells (max tasks within T)
///     stream                # also expand streaming (no-lookahead) cells
///     tasks.sizes uniform 1 4       # workload axis: per-task size family
///     tasks.release periodic 3      # workload axis: release-date family
///     tasks.arrival poisson 5      # workload axis: stochastic arrivals
///     algos optimal forward-greedy   # omit for every non-exponential entry
///     platform              # optional explicit platform(s), text format of
///     chain 2               # mst/platform/io.hpp, terminated by `end`
///     2 3
///     3 5
///     end
///     end
///
/// The three `tasks.*` keys each append one generator to the workload axis
/// (families: `tasks.sizes unit | fixed K | uniform LO HI`, `tasks.release
/// periodic GAP | jitter LO HI`, `tasks.arrival poisson MEAN | bursts SIZE
/// GAP`).  An empty axis means the paper's identical unit tasks; listing
/// `tasks.sizes unit` alongside other entries keeps the identical point in
/// the grid explicitly.  Workload cells draw their task count from `tasks`
/// — including decision-form cells, whose pool is then finite.
///
/// The tests' canonical writer (`tests/support/spec_writer.hpp`) renders
/// every valid spec as text that `parse_spec` reads back exactly.

namespace mst::scenario {

/// A declarative sweep: the cross product of the generator grid (and any
/// explicit platforms) with the work axes and the algorithm list.
struct SweepSpec {
  std::string name = "sweep";
  std::uint64_t seed = 1;

  /// Generator grid: instances are generated per (kind, class, size).
  std::vector<api::PlatformKind> kinds;
  std::vector<PlatformClass> classes = {PlatformClass::kUniform};
  std::vector<std::size_t> sizes;  ///< processors / slaves / legs per kind
  std::size_t instances = 1;       ///< seeded instances per grid point

  /// Generator knobs (see `GeneratorParams` and the tree/spider shapes).
  Time lo = 1;
  Time hi = 10;
  std::size_t min_leg_len = 1;  ///< spider legs: length range
  std::size_t max_leg_len = 3;
  double depth_bias = 0.0;      ///< trees: 0 = random parent, 1 = chain

  /// Explicit platforms swept in addition to (or instead of) the grid.
  std::vector<api::Platform> platforms;

  /// Work axes: each platform × algorithm runs every entry of both.
  std::vector<std::size_t> tasks;  ///< makespan-form cells
  std::vector<Time> deadlines;     ///< decision-form cells

  /// `stream` key: additionally expand streaming-mode cells — the
  /// no-lookahead driver (`sim/streaming.hpp`) over every `tasks` entry,
  /// paired only with algorithms whose `supports.streaming` flag is set.
  bool stream = false;

  /// Workload axis (`tasks.sizes` / `tasks.release` / `tasks.arrival`
  /// keys).  Empty = identical unit tasks only.  Non-identical generators
  /// pair only with algorithms that support their features, and their
  /// decision-form cells cross with `tasks` (the pool size).
  std::vector<WorkloadGen> workloads;

  /// Algorithm names, matched per platform kind.  Empty = every registered
  /// non-exponential algorithm of the kind.
  std::vector<std::string> algorithms;

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// Parses the text format above.  Throws `std::invalid_argument` with a
/// line number on malformed input, unknown keys or unknown enum names.
SweepSpec parse_spec(const std::string& text);

}  // namespace mst::scenario
