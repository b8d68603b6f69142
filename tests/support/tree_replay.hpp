#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/platform/tree.hpp"

/// \file tree_replay.hpp
/// Test references on the forward ASAP engine: the makespan of a given
/// destination sequence, and the earliest-completion greedy's sequence.
/// The library runs both inside its solvers (`forward_greedy_tree_into`,
/// the local-search descent); tests use these to time a sequence of their
/// own choosing against the simulator, the descent and the exact optimum.

namespace mst::oracle {

/// Makespan of dispatching `dests` ASAP, replayed through `state` (reset
/// first).
inline Time asap_tree_makespan(const std::vector<NodeId>& dests, TreeAsapState& state) {
  state.reset();
  Time makespan = 0;
  for (NodeId dest : dests) makespan = std::max(makespan, state.commit(dest));
  return makespan;
}

inline Time asap_tree_makespan(const Tree& tree, const std::vector<NodeId>& dests) {
  TreeAsapState state(tree);
  return asap_tree_makespan(dests, state);
}

/// The forward greedy's destination sequence (ties toward the smaller id).
inline std::vector<NodeId> forward_greedy_tree(const Tree& tree, std::size_t n) {
  TreeAsapState state(tree);
  std::vector<NodeId> dests;
  forward_greedy_tree_into(n, state, dests);
  return dests;
}

}  // namespace mst::oracle
