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

/// `a·b` for `a, b >= 0`, or the largest time when that overflows.
Time saturating_mul(Time a, Time b) {
  Time product = 0;
  return __builtin_mul_overflow(a, b, &product) ? std::numeric_limits<Time>::max() : product;
}

/// A suffix's one-port bound as a function of the bound `t` of what follows
/// it, `t -> max(floor, shift + t)`.  One position sending to `d` is
/// `first(d) + max(rest(d), t)`; a run of positions composes into the same
/// form, so the swap scan extends the run between its pair in O(1).
struct PortBound {
  Time floor = 0;  ///< bounds are >= 0, so {0, 0} is the identity
  Time shift = 0;

  [[nodiscard]] Time operator()(Time t) const { return std::max(floor, saturating_add(shift, t)); }

  /// This run followed by one more position, which sends to a node with
  /// these `first` and `rest`.
  [[nodiscard]] PortBound then(Time first, Time rest) const {
    return {std::max(floor, saturating_add(shift, saturating_add(first, rest))),
            saturating_add(shift, first)};
  }
};

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
    scratch_.port.resize(n_ + 1);
    scratch_.tail.resize(n_ + 1);
    scratch_.later.resize(n_);
    scratch_.total.resize(tree.size());
    scratch_.after.resize(tree.size());
    scratch_.between.resize(tree.size());
    state_.reset();
    state_.save(scratch_.snapshots.data());
    scratch_.prefix[0] = 0;
    scratch_.port[0] = 0;
    rebuild(0);
  }

  // mstlint: zero-alloc
  void run(std::size_t max_passes) {
    const NodeId nodes = state_.size();
    std::vector<std::size_t>& after = scratch_.after;
    std::vector<std::size_t>& between = scratch_.between;
    bool improved = true;
    while (improved && result_.passes < max_passes) {
      improved = false;
      ++result_.passes;

      // Move 1: reassign one task to another node.  A reassign keeps every
      // later position, so `after` needs no update when one is accepted.
      after = scratch_.total;
      for (std::size_t i = 0; i < n_; ++i) {
        // Prefix `i` already completes a task at the makespan: no candidate
        // from here on can beat it.
        if (scratch_.prefix[i] >= result_.makespan) break;
        const NodeId original = dests_[i];
        --after[original];  // now counts positions after `i`
        for (NodeId v = 1; v < nodes; ++v) {
          if (v == original) continue;
          dests_[i] = v;
          const Time bound = lift(v, scratch_.tail[i + 1]);
          if (accept_if_better(i, i, bound, after[v], 0)) {
            improved = true;
            break;  // keep v, rescan neighborhood next pass
          }
          dests_[i] = original;
        }
      }

      // Move 2: swap the destinations of two emission positions.  The
      // candidate of `(i, j)` sends position `i` to `b` and `j` to `a`: after
      // `i` it sends `between[b] + later[j]` tasks to `b`, and after `j`
      // `later[i] - between[a]` to `a`.
      const std::vector<std::size_t>& later = scratch_.later;
      for (std::size_t i = 0; i < n_; ++i) {
        if (scratch_.prefix[i] >= result_.makespan) break;
        std::fill(between.begin(), between.end(), 0);
        PortBound inner;  // the incumbent's positions strictly between `i` and `j`
        for (std::size_t j = i + 1; j < n_; ++j) {
          const NodeId a = dests_[i];
          const NodeId b = dests_[j];
          if (a != b) {
            std::swap(dests_[i], dests_[j]);
            const Time bound = lift(b, inner(lift(a, scratch_.tail[j + 1])));
            if (accept_if_better(i, j, bound, between[b] + later[j], later[i] - between[a])) {
              improved = true;
            } else {
              std::swap(dests_[i], dests_[j]);
            }
          }
          ++between[dests_[j]];
          inner = inner.then(scratch_.first[dests_[j]], scratch_.rest[dests_[j]]);
        }
      }
    }
  }

 private:
  /// One-port bound of a position sending to `dest`, followed by a suffix
  /// of bound `t`.
  [[nodiscard]] Time lift(NodeId dest, Time t) const {
    return saturating_add(scratch_.first[dest], std::max(scratch_.rest[dest], t));
  }

  /// Replays the candidate now in `dests_`, which differs from the incumbent
  /// at positions `i..last` only, from the snapshot at or before `i`.
  /// Accepts it (returns true) iff its makespan beats the incumbent's.
  /// `bound` is the one-port bound of its positions `i..n-1`; `first_later`
  /// and `last_later` count the positions after `i` and after `last` that
  /// send to the node `i` and `last` send to.
  bool accept_if_better(std::size_t i, std::size_t last, Time bound, std::size_t first_later,
                        std::size_t last_later) {
    const Time incumbent = result_.makespan;
    // The candidate keeps prefix `i`, so its makespan is at least both.
    if (scratch_.prefix[i] >= incumbent || saturating_add(scratch_.port[i], bound) >= incumbent) {
      return false;
    }
    seek(i);
    for (std::size_t k = i; k < n_; ++k) {
      const NodeId dest = dests_[k];
      const Time end = commit(dest);
      // Tasks the candidate sends to `dest` after position `k`: the
      // incumbent's count, but for a swap `(i, last)` position `last` now
      // sends to `dests_[last]` instead of `dests_[i]`.
      std::size_t later = scratch_.later[k];
      if (k == i) {
        later = first_later;
      } else if (k == last) {
        later = last_later;
      } else if (k < last) {
        later = later + (dest == dests_[last]) - (dest == dests_[i]);
      }
      if (saturating_add(end, saturating_mul(static_cast<Time>(later),
                                             state_.proc(dest).work)) >= incumbent) {
        return false;
      }
    }
    ++result_.moves;
    rebuild(i);
    return true;
  }

  /// Restores the state after prefix `i` of the incumbent.
  void seek(std::size_t i) {
    const std::size_t kept = i / stride_;
    state_.restore(&scratch_.snapshots[kept * width_]);
    for (std::size_t k = kept * stride_; k < i; ++k) commit(dests_[k]);
  }

  /// Recomputes the incumbent's makespan, the snapshots, prefix makespans
  /// and port times from position `i` on (the incumbent changed there), and
  /// its tail bounds and destination counts.
  void rebuild(std::size_t i) {
    const std::size_t from = i / stride_ * stride_;
    seek(from);
    Time partial = scratch_.prefix[from];
    for (std::size_t k = from; k < n_; ++k) {
      partial = std::max(partial, commit(dests_[k]));
      scratch_.prefix[k + 1] = partial;
      scratch_.port[k + 1] = state_.master_port_free();
      if ((k + 1) % stride_ == 0) state_.save(&scratch_.snapshots[(k + 1) / stride_ * width_]);
    }
    result_.makespan = partial;
    scratch_.tail[n_] = 0;
    std::fill(scratch_.total.begin(), scratch_.total.end(), 0);
    for (std::size_t k = n_; k-- > 0;) {
      const NodeId dest = dests_[k];
      scratch_.tail[k] = lift(dest, scratch_.tail[k + 1]);
      scratch_.later[k] = scratch_.total[dest]++;
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
