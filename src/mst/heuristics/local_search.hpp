#pragma once

#include <cstddef>
#include <vector>

#include "mst/baselines/tree_asap.hpp"
#include "mst/platform/tree.hpp"

/// \file local_search.hpp
/// Local search over tree dispatch sequences — the second §8-style
/// heuristic, complementary to the spider cover.
///
/// The cover heuristic plans optimally but ignores off-path processors;
/// the greedy uses every node but never revisits a decision.  This pass
/// starts from any destination sequence and descends over two move types:
///   * reassign — send the i-th emitted task to a different node;
///   * swap     — exchange the destinations of two emission positions.
/// Evaluation is exact (the `TreeAsapState` recurrence, the
/// simulator-faithful timing), so every accepted move is a true
/// improvement.  First-improvement descent, deterministic scan order,
/// bounded by `max_passes` full sweeps.
///
/// **Suffix replay.**  A candidate shares the incumbent's first `i`
/// destinations (`i` the reassigned position, or the first of a swapped
/// pair), and the ASAP timing of a prefix does not depend on what follows
/// it.  So the descent keeps the engine state after every prefix of the
/// incumbent (`TreeAsapState::save`) with each prefix's makespan, restores
/// the state after prefix `i` and replays only positions `i..n-1`.  An
/// accepted move rebuilds the snapshots from `i`.  (Should the table of
/// `(n+1)·2|V|` times pass 32 MiB, only every `s`-th prefix is kept, and a
/// candidate first replays the incumbent from the nearest one kept.)
///
/// **Early rejection.**  Let `M` be the incumbent makespan.  A candidate
/// is dropped as soon as a lower bound on its makespan reaches `M`, most of
/// them before any commit:
///   * *One-port bound, before the replay.*  With `first(v)` the first-hop
///     latency of node `v` and `rest(v)` the rest of its path latency plus
///     `w_v`, a suffix of destinations from position `k` needs at least
///     `tail[k] = first(d_k) + max(rest(d_k), tail[k+1])` (`tail[n] = 0`)
///     after the master's out-port frees: task `k` leaves no earlier and
///     completes `first + rest` after it leaves, and the master has one
///     out-port, so every later task leaves after task `k`'s first hop.
///     The descent keeps `port[k]`, when the out-port frees after prefix `k`
///     of the incumbent, and the incumbent's `tail`.  The candidate shares
///     prefix `i` and every position after `last`, so folding
///     `f_d(t) = first(d) + max(rest(d), t)` over its positions
///     `last, ..., i` from `tail[last + 1]` gives its suffix bound `b`, and
///     its makespan is at least `port[i] + b`.  A run of positions folds
///     into `t -> max(floor, shift + t)`, so the swap scan extends the run
///     between its pair in O(1) per candidate.  Checking it again during
///     the replay would add nothing: the master emits back to back, so
///     after position `k` its out-port frees at exactly `port[i]` plus the
///     first hops of positions `i..k`, which the fold already counts.
///   * *Per-processor bound, during the replay.*  Once position `k` is
///     committed to `d` with completion `end`, each of the `r` later tasks
///     the candidate sends to `d` runs on `d` after it, so the makespan is
///     at least `end + r·w_d`.  `r` is the incumbent's count after `k` (kept
///     per position as `later[k]`), except at the changed positions.  The
///     reassign scan keeps, per node, how many positions after `i` send to
///     it.  The swap scan keeps, per node, how many positions strictly
///     between `i` and `j` send to it (`between`); the candidate of
///     `(i, j)`, with incumbent destinations `a` at `i` and `b` at `j`,
///     sends `between[b] + later[j]` later tasks to `b` from `i` and
///     `later[i] - between[a]` to `a` from `j`, and for `i < k < j` it moves
///     one task from `b`'s count to `a`'s.
/// The candidate also keeps the incumbent's prefix `i`, so its makespan is
/// at least that prefix's makespan `prefix[i]` too: it is rejected before
/// any commit when `prefix[i] >= M`, and a sweep stops at the first such
/// `i`, since every candidate from there on keeps that prefix.  With the
/// prefix below `M` and `r = 0`, the per-processor test is the candidate's
/// partial makespan.  A bound past the largest time saturates and rejects.
/// Every test rejects only candidates whose full makespan is `>= M`, which
/// the full replay rejects as well, and an accepted candidate is replayed to
/// its end.  So every accepted move, the returned sequence, `makespan`,
/// `moves` and `passes` are exactly those of replaying every candidate from
/// scratch; only `commits` differs.  The bookkeeping is `O(n + |V|)` values
/// beside the snapshots.
///
/// **Overflow.**  Every ASAP time is checked, and a commit the descent does
/// make throws `std::invalid_argument` when a time passes the largest
/// `Time`.  A candidate rejected before it reaches an overflowing commit is
/// not replayed that far, so it no longer throws where a full replay would.

namespace mst {

struct LocalSearchResult {
  std::vector<NodeId> dests;  ///< improved dispatch sequence
  Time makespan = 0;          ///< its exact ASAP makespan
  std::size_t moves = 0;      ///< accepted improvements
  std::size_t passes = 0;     ///< full neighborhood sweeps performed
  /// Engine commits the descent made (snapshot builds and candidate
  /// replays): a deterministic measure of its work.
  std::size_t commits = 0;
};

/// Reusable working set of the descent, one per thread.  Warm buffers make
/// a solve on a tree of the same size allocation-free.
struct LocalSearchScratch {
  TreeAsapState state;          ///< the engine, shared by the greedy start and the descent
  std::vector<Time> snapshots;  ///< `state.save` after prefixes of the incumbent
  std::vector<Time> prefix;     ///< makespan of each prefix of the incumbent
  std::vector<Time> port;       ///< master out-port free time after each prefix of the incumbent
  std::vector<Time> tail;       ///< one-port lower bound of each suffix of the incumbent
  std::vector<Time> first;      ///< per node: first-hop latency
  std::vector<Time> rest;       ///< per node: rest of the path latency plus work
  /// Per position of the incumbent: later positions with its destination.
  std::vector<std::size_t> later;
  std::vector<std::size_t> total;    ///< per node: positions of the incumbent sending to it
  std::vector<std::size_t> after;    ///< per node: positions after the reassign's `i` sending to it
  std::vector<std::size_t> between;  ///< per node: positions strictly between the swapped pair
};

/// Improves `initial` (destinations must be slave nodes).  Never returns a
/// worse sequence than the input.
// mstlint: allow-next-line(tests-only-api) -- ROADMAP item 20 reseeds the descent from spider-cover
LocalSearchResult improve_tree_dispatch(const Tree& tree, std::vector<NodeId> initial,
                                        std::size_t max_passes = 16);

/// Greedy start + local search.
LocalSearchResult local_search_tree(const Tree& tree, std::size_t n,
                                    std::size_t max_passes = 16);

/// Scratch-reusing twin of `local_search_tree`: the greedy start is built
/// in `buffer` (its capacity reused) on `scratch.state`, which the descent
/// then reuses.  Identical result.
LocalSearchResult local_search_tree(const Tree& tree, std::size_t n, LocalSearchScratch& scratch,
                                    std::vector<NodeId> buffer, std::size_t max_passes = 16);

}  // namespace mst
