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
/// **Early rejection.**  A candidate is dropped as soon as it provably
/// cannot beat the incumbent makespan `M`:
///   * its partial makespan (a completion already placed) reaches `M`;
///   * past its last changed position `k0` (`i` for a reassign, `j` for a
///     swap `(i, j)`) the rest of the sequence is the incumbent's.  The
///     master has one out-port, so those remaining emissions leave it one
///     after another, none before its current free time `P`.  With
///     `first(v)` the first-hop latency of node `v` and `rest(v)` the rest
///     of its path latency plus `w_v`, the suffix from position `k` needs
///     at least `tail[k] = first(d_k) + max(rest(d_k), tail[k+1])` after
///     `P` (`tail[n] = 0`): task `k` completes no earlier than
///     `first + rest` after its emission, and every later task is emitted
///     after task `k`'s first hop.  So `P + tail[k+1]` bounds the
///     candidate's makespan from below once position `k >= k0` is placed,
///     and the candidate is dropped when that bound reaches `M`; a bound
///     past the largest time drops it too.
/// Both tests reject only candidates whose full makespan is `>= M`, which
/// the full replay rejects as well, and an accepted candidate is replayed to
/// its end.  So every accepted move, the returned sequence, `makespan`,
/// `moves` and `passes` are exactly those of replaying every candidate from
/// scratch; only `commits` differs.
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
  std::vector<Time> tail;       ///< one-port lower bound of each suffix of the incumbent
  std::vector<Time> first;      ///< per node: first-hop latency
  std::vector<Time> rest;       ///< per node: rest of the path latency plus work
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
