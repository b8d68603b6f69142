#pragma once

#include <cstddef>
#include <vector>

#include "mst/baselines/tree_asap.hpp"

/// \file asap_peek.hpp
/// Test references on the forward ASAP engine's public `save`/`commit`/
/// `restore`: the completion a task would have on one slave, and the
/// earliest-completion choice as one such peek per slave, `O(Σ depth)` per
/// task.  The library chooses in one ascending pass over the nodes instead
/// (`TreeAsapState::earliest_completion`); `tests/test_tree_exact.cpp`
/// checks that both pick the same sequences and throw the same errors.

namespace mst::oracle {

/// Completion time if the next task went to `dest`, with `state` left as
/// it was, also when the commit throws.
inline Time peek_completion(TreeAsapState& state, NodeId dest, Time size = 1, Time release = 0) {
  std::vector<Time> saved(state.saved_size());
  state.save(saved.data());
  try {
    const Time end = state.commit(dest, size, release);
    state.restore(saved.data());
    return end;
  } catch (...) {
    state.restore(saved.data());
    throw;
  }
}

/// The slave with the smallest peeked completion, ties toward the smaller
/// node id: the choice `earliest_completion` makes, one walk per slave.
inline NodeId peek_earliest_completion(TreeAsapState& state, Time size = 1, Time release = 0) {
  NodeId best = 1;
  Time best_completion = peek_completion(state, best, size, release);
  for (NodeId v = 2; v < state.size(); ++v) {
    const Time completion = peek_completion(state, v, size, release);
    if (completion < best_completion) {
      best_completion = completion;
      best = v;
    }
  }
  return best;
}

}  // namespace mst::oracle
