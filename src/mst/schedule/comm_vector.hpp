#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/common/time.hpp"

/// \file comm_vector.hpp
/// Communication vectors and the paper's Definition 3 order.

namespace mst {

/// The communication vector `C(i)` of a task: entry `j` (0-based) is the
/// emission time `C^i_{j+1}` of the task on link `j`, i.e. the time the task
/// starts crossing from node `j-1` (or the master for `j = 0`) to node `j`.
/// Its length determines the destination processor: `P(i) = length`.
using CommVector = std::vector<Time>;

/// Definition 3 of the paper: `a ≺ b` iff
///  * at the first index where they differ (within the common prefix),
///    `a` is smaller; or
///  * they agree on the whole common prefix and `a` is *longer* than `b`.
///
/// Intuitively "greater" means "emitted later on the first link, ties broken
/// toward the nearer processor" — exactly what the backward construction
/// wants to maximize.  This is a strict weak order on vectors of distinct
/// lengths or contents; equal vectors are unordered.
bool precedes(const CommVector& a, const CommVector& b);

/// True iff `a ≺ b` or `a == b` (convenience for tests).
bool precedes_or_equal(const CommVector& a, const CommVector& b);

/// `{t1, t2, ...}` rendering for diagnostics.
std::string to_string(const CommVector& v);

}  // namespace mst
