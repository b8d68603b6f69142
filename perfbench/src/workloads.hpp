#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mst/scenario/generators.hpp"
#include "mst/scenario/runner.hpp"

/// \file workloads.hpp
/// The benchmark's named workloads: fixed cell grids generated from a seed.
///
/// A workload is one or more sweep specs in the `mstctl --mode=sweep` text
/// format.  Each spec is parsed, seeded from the run seed and expanded
/// through `scenario::expand`; the benchmark may keep only some cell modes
/// of a spec, then concatenates the specs' cells into one grid, re-indexed
/// so journals and shards see a single canonical grid.  The grid shape —
/// kinds, sizes, algorithms, work axes — is fixed per workload, so a new
/// seed draws new platforms and arrival streams but keeps every metric name
/// and sample count.

namespace mstbench {

/// One spec of a workload.
struct Part {
  const char* spec;  ///< spec text without a `seed` line (the run seed is used)
  /// Cell modes kept from this spec's expansion; empty keeps every mode.
  std::vector<mst::scenario::CellMode> keep;
};

struct Workload {
  const char* name;
  std::vector<Part> parts;
  bool materialize = false;  ///< materialize every schedule and check its feasibility
  std::size_t shards = 1;    ///< >1: journaled shards run one after the other, then merge
  /// Seconds one sweep pass takes on a quiet 4-core host.  A run makes
  /// `--seconds / pass_s` passes: a fixed count, so a faster program gets
  /// no more tries at its best pass than a slower one.
  double pass_s = 1;
};

/// Every workload, in a fixed order.
const std::vector<Workload>& workloads();

/// The named workload; throws `std::invalid_argument` naming the known ones.
const Workload& find_workload(const std::string& name);

/// Parses, seeds and expands the workload's specs into one grid (the
/// benchmark's set-up phase).
std::vector<mst::scenario::Cell> build_grid(const Workload& workload, std::uint64_t seed);

/// The sweep options every run of the workload uses: four workers, one
/// repetition per cell.
mst::scenario::RunOptions run_options(const Workload& workload);

}  // namespace mstbench
