#include "mst/heuristics/local_search.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// Snapshot table budget in times (32 MiB).  While every prefix's state
/// fits, one is kept per prefix; past it only every `stride`-th, and a
/// candidate first replays the incumbent from the nearest one kept.
constexpr std::size_t kSnapshotBudget = std::size_t{1} << 22;

/// `a + b`, or the largest time when that overflows.  The sums here are
/// lower bounds compared against a makespan, which never exceeds the
/// largest time, so a saturated bound rejects exactly as the true one would.
Time saturating_add(Time a, Time b) {
  Time sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? std::numeric_limits<Time>::max() : sum;
}

/// One first-improvement descent over `result.dests` on `scratch.state`,
/// which holds `tree`.
class Descent {
 public:
  Descent(const Tree& tree, LocalSearchResult& result, LocalSearchScratch& scratch)
      : result_(result),
        scratch_(scratch),
        state_(scratch.state),
        dests_(result.dests),
        n_(dests_.size()),
        width_(state_.saved_size()),
        stride_((n_ + 1) * width_ / kSnapshotBudget + 1) {
    // first(v) = c of v's first hop; rest(v) = the other hops' c, then w_v.
    // A node's parent precedes it, so ascending passes see the parent first.
    scratch_.first.assign(tree.size(), 0);
    scratch_.rest.assign(tree.size(), 0);
    for (NodeId v = 1; v < tree.size(); ++v) {
      const NodeId parent = tree.parent(v);
      const Time comm = tree.proc(v).comm;
      scratch_.first[v] = parent == 0 ? comm : scratch_.first[parent];
      scratch_.rest[v] = parent == 0 ? 0 : saturating_add(scratch_.rest[parent], comm);
    }
    for (NodeId v = 1; v < tree.size(); ++v) {
      scratch_.rest[v] = saturating_add(scratch_.rest[v], tree.proc(v).work);
    }
    scratch_.snapshots.resize((n_ / stride_ + 1) * width_);
    scratch_.prefix.resize(n_ + 1);
    scratch_.tail.resize(n_ + 1);
    state_.reset();
    state_.save(scratch_.snapshots.data());
    scratch_.prefix[0] = 0;
    rebuild(0);
  }

  // mstlint: zero-alloc
  void run(std::size_t max_passes) {
    const NodeId nodes = state_.size();
    bool improved = true;
    while (improved && result_.passes < max_passes) {
      improved = false;
      ++result_.passes;

      // Move 1: reassign one task to another node.
      for (std::size_t i = 0; i < n_; ++i) {
        const NodeId original = dests_[i];
        for (NodeId v = 1; v < nodes; ++v) {
          if (v == original) continue;
          dests_[i] = v;
          if (accept_if_better(i, i)) {
            improved = true;
            break;  // keep v, rescan neighborhood next pass
          }
          dests_[i] = original;
        }
      }

      // Move 2: swap the destinations of two emission positions.
      for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
          if (dests_[i] == dests_[j]) continue;
          std::swap(dests_[i], dests_[j]);
          if (accept_if_better(i, j)) {
            improved = true;
          } else {
            std::swap(dests_[i], dests_[j]);
          }
        }
      }
    }
  }

 private:
  /// Replays the candidate now in `dests_`, which differs from the incumbent
  /// at positions `i..last` only, from the snapshot at or before `i`.
  /// Accepts it (returns true) iff its makespan beats the incumbent's.
  bool accept_if_better(std::size_t i, std::size_t last) {
    const Time incumbent = result_.makespan;
    if (scratch_.prefix[i] >= incumbent) return false;
    seek(i);
    Time partial = scratch_.prefix[i];
    for (std::size_t k = i; k < n_; ++k) {
      partial = std::max(partial, commit(dests_[k]));
      if (partial >= incumbent) return false;
      if (k >= last &&
          saturating_add(state_.master_port_free(), scratch_.tail[k + 1]) >= incumbent) {
        return false;
      }
    }
    ++result_.moves;
    rebuild(i);  // sets the incumbent makespan to `partial`
    return true;
  }

  /// Restores the state after prefix `i` of the incumbent.
  void seek(std::size_t i) {
    const std::size_t kept = i / stride_;
    state_.restore(&scratch_.snapshots[kept * width_]);
    for (std::size_t k = kept * stride_; k < i; ++k) commit(dests_[k]);
  }

  /// Recomputes the snapshots, prefix makespans and tail bounds of the
  /// incumbent, which changed at positions `i` and later.
  void rebuild(std::size_t i) {
    const std::size_t from = i / stride_ * stride_;
    seek(from);
    Time partial = scratch_.prefix[from];
    for (std::size_t k = from; k < n_; ++k) {
      partial = std::max(partial, commit(dests_[k]));
      scratch_.prefix[k + 1] = partial;
      if ((k + 1) % stride_ == 0) state_.save(&scratch_.snapshots[(k + 1) / stride_ * width_]);
    }
    result_.makespan = partial;
    scratch_.tail[n_] = 0;
    for (std::size_t k = n_; k-- > 0;) {
      const NodeId dest = dests_[k];
      scratch_.tail[k] = saturating_add(scratch_.first[dest],
                                        std::max(scratch_.rest[dest], scratch_.tail[k + 1]));
    }
  }

  Time commit(NodeId dest) {
    ++result_.commits;
    return state_.commit(dest);
  }
  // mstlint: zero-alloc-end

  LocalSearchResult& result_;
  LocalSearchScratch& scratch_;
  TreeAsapState& state_;
  std::vector<NodeId>& dests_;
  std::size_t n_;
  std::size_t width_;   ///< times per snapshot
  std::size_t stride_;  ///< prefixes between kept snapshots
};

LocalSearchResult descend(const Tree& tree, std::vector<NodeId> dests, std::size_t max_passes,
                          LocalSearchScratch& scratch) {
  LocalSearchResult result;
  result.dests = std::move(dests);
  Descent(tree, result, scratch).run(max_passes);
  return result;
}

}  // namespace

LocalSearchResult improve_tree_dispatch(const Tree& tree, std::vector<NodeId> initial,
                                        std::size_t max_passes) {
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  for (NodeId v : initial) {
    MST_REQUIRE(v != 0 && v < tree.size(), "initial destinations must be slave nodes");
  }
  LocalSearchScratch scratch;
  scratch.state.assign(tree);
  return descend(tree, std::move(initial), max_passes, scratch);
}

LocalSearchResult local_search_tree(const Tree& tree, std::size_t n, std::size_t max_passes) {
  LocalSearchScratch scratch;
  return local_search_tree(tree, n, scratch, {}, max_passes);
}

LocalSearchResult local_search_tree(const Tree& tree, std::size_t n, LocalSearchScratch& scratch,
                                    std::vector<NodeId> buffer, std::size_t max_passes) {
  scratch.state.assign(tree);
  forward_greedy_tree_into(n, scratch.state, buffer);
  return descend(tree, std::move(buffer), max_passes, scratch);
}

}  // namespace mst
