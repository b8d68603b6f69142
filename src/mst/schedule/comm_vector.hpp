#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/common/time.hpp"

/// \file comm_vector.hpp
/// Communication vectors, the per-task emission times of a chain schedule.

namespace mst {

/// The communication vector `C(i)` of a task: entry `j` (0-based) is the
/// emission time `C^i_{j+1}` of the task on link `j`, i.e. the time the task
/// starts crossing from node `j-1` (or the master for `j = 0`) to node `j`.
/// Its length determines the destination processor: `P(i) = length`.
using CommVector = std::vector<Time>;

/// `{t1, t2, ...}` rendering for diagnostics.
std::string to_string(const CommVector& v);

}  // namespace mst
