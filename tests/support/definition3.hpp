#pragma once

#include <algorithm>
#include <cstddef>

#include "mst/schedule/comm_vector.hpp"

/// \file definition3.hpp
/// Test oracle: the paper's Definition 3 order on communication vectors,
/// as written.  The library's kernel (`detail::backward_construction`)
/// picks the Definition 3 winner with an O(1) comparison per destination
/// and never compares whole vectors; the quadratic reference construction
/// (`quadratic_chain.hpp`) and the Lemma 1 trace tests compare with this.

namespace mst::oracle {

/// Definition 3 of the paper: `a ≺ b` iff
///  * at the first index where they differ (within the common prefix),
///    `a` is smaller; or
///  * they agree on the whole common prefix and `a` is *longer* than `b`.
///
/// Intuitively "greater" means "emitted later on the first link, ties broken
/// toward the nearer processor" — exactly what the backward construction
/// wants to maximize.  This is a strict weak order on vectors of distinct
/// lengths or contents; equal vectors are unordered.
inline bool precedes(const CommVector& a, const CommVector& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t k = 0; k < common; ++k) {
    if (a[k] != b[k]) return a[k] < b[k];
  }
  // Equal on the common prefix: the longer vector is the smaller one.
  return a.size() > b.size();
}

}  // namespace mst::oracle
