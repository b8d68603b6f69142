#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/heuristics/local_search.hpp"
#include "mst/platform/tree.hpp"
#include "tree_replay.hpp"

/// \file full_replay_local_search.hpp
/// Test oracle: the reassign/swap descent of `improve_tree_dispatch` with
/// every candidate replayed from scratch, all `n` emissions, and compared
/// whole against the incumbent.  The library's descent replays only the
/// changed suffix and drops a candidate once a lower bound reaches the
/// incumbent; `tests/test_local_search.cpp` checks that both return the
/// same sequence, makespan, moves and passes.  `commits` counts the engine
/// commits of this full replay.  This is the only copy of the full-replay
/// loop.

namespace mst::oracle {

inline LocalSearchResult full_replay_local_search(const Tree& tree, std::vector<NodeId> initial,
                                                  std::size_t max_passes) {
  LocalSearchResult result;
  result.dests = std::move(initial);
  TreeAsapState state(tree);
  const std::size_t n = result.dests.size();
  const auto evaluate = [&] {
    result.commits += n;
    return asap_tree_makespan(result.dests, state);
  };
  result.makespan = evaluate();

  bool improved = true;
  while (improved && result.passes < max_passes) {
    improved = false;
    ++result.passes;

    for (std::size_t i = 0; i < n; ++i) {
      const NodeId original = result.dests[i];
      for (NodeId v = 1; v < tree.size(); ++v) {
        if (v == original) continue;
        result.dests[i] = v;
        const Time makespan = evaluate();
        if (makespan < result.makespan) {
          result.makespan = makespan;
          ++result.moves;
          improved = true;
          break;
        }
        result.dests[i] = original;
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (result.dests[i] == result.dests[j]) continue;
        std::swap(result.dests[i], result.dests[j]);
        const Time makespan = evaluate();
        if (makespan < result.makespan) {
          result.makespan = makespan;
          ++result.moves;
          improved = true;
        } else {
          std::swap(result.dests[i], result.dests[j]);
        }
      }
    }
  }
  return result;
}

}  // namespace mst::oracle
