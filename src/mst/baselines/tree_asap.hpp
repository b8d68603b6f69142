#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

/// \file tree_asap.hpp
/// The forward ASAP engine: earliest timing of a destination sequence on a
/// chain, a spider or a general tree, and the searches built on it.
///
/// Every emission, hop and execution is placed at its earliest feasible
/// time, FIFO per out-port and per processor.  Because the master is the
/// only task source and every out-port forwards FIFO, this predicts the
/// discrete-event simulator's timing *exactly* (verified in the test
/// suite).  For identical tasks per-link FIFO is without loss of generality
/// (crossing communications can be uncrossed by relabeling — the argument
/// behind Lemma 1), so minimizing over all destination sequences with ASAP
/// timing yields the exact optimum.  This one recurrence times every
/// baseline (`asap.hpp`, forward greedy, round robin, single node), the
/// exhaustive oracles (`brute_force.hpp`, `brute_force_tree_makespan`), the
/// ECT online policy and the local-search descent; the paper's algorithm,
/// by contrast, never needs to enumerate sequences.
///
/// Chains and spiders are numbered as `tree_from_chain`/`tree_from_spider`
/// embed them, without building the tree: chain processor `k` is node
/// `k + 1`, spider leg `l` processor `d` is node `spider_node(spider, {l, d})`.

namespace mst {

/// Incremental ASAP state: per node, when its out-port and its processor
/// become free.  The root→node paths are flattened into one table at
/// construction, so `peek_completion` and `commit` never allocate — the
/// local-search descent evaluates thousands of candidate sequences per solve
/// through one state.
///
/// Those free times are the state's only mutable part: `save` copies them,
/// `2·size()` values, into a caller buffer and `restore` writes them back,
/// so a search can return to any earlier prefix of a sequence in `O(|V|)`
/// instead of replaying it (the local search keeps one snapshot per prefix,
/// the exhaustive search one per depth).
class TreeAsapState {
 public:
  /// An empty state, to be given a platform by `assign`.
  TreeAsapState() = default;
  explicit TreeAsapState(const Tree& tree);
  explicit TreeAsapState(const Chain& chain);
  explicit TreeAsapState(const Spider& spider);

  /// Rebuilds the state for `tree`, all ports and processors free at 0.
  /// Allocation-free once the buffers have held a tree this large.
  void assign(const Tree& tree);

  /// Node count, the master (node 0) included.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Number of hops from the master to `v` (a chain processor `k` is `k + 1`
  /// hops away).
  [[nodiscard]] std::size_t depth(NodeId v) const { return nodes_[v].depth; }

  /// Node `v`'s incoming link and work.
  [[nodiscard]] const Processor& proc(NodeId v) const { return nodes_[v].proc; }

  /// When the master's out-port frees up: no later task leaves the master
  /// before it.
  [[nodiscard]] Time master_port_free() const { return times_[0]; }

  /// Completion time if the next task were sent to `dest` (a slave node),
  /// without committing.  `size` scales every hop and the execution; the
  /// master emission starts no earlier than `release` (defaults reproduce
  /// the identical-task arithmetic exactly, matching the simulator).
  [[nodiscard]] Time peek_completion(NodeId dest, Time size = 1, Time release = 0) const;

  /// Appends a task to `dest`; returns its completion time.  When
  /// `emissions` is given, it receives the task's emission time on each of
  /// the `depth(dest)` hops, master first.
  Time commit(NodeId dest, Time size = 1, Time release = 0, Time* emissions = nullptr);

  /// The slave whose `peek_completion(v, size, release)` is smallest, ties
  /// toward the smaller node id: the earliest-completion-time choice.
  [[nodiscard]] NodeId earliest_completion(Time size = 1, Time release = 0) const;

  /// Forget every committed task (all ports and processors free at 0); the
  /// path table is platform-shaped and survives.  Allocation-free.
  void reset();

  /// Number of values `save` writes and `restore` reads: `2·size()`.
  [[nodiscard]] std::size_t saved_size() const { return times_.size(); }

  /// Copies every out-port and processor free time to `out[0, saved_size())`.
  void save(Time* out) const;

  /// Returns to the state a `save` on this platform wrote to `in`.
  void restore(const Time* in);

 private:
  struct Node {
    Processor proc;        ///< incoming link and work (unused for the master)
    std::size_t path = 0;  ///< root-excluded root→node path: `paths_[path, path + depth)`
    std::size_t depth = 0;
  };

  /// Empties the state down to the master, reserving room for `nodes`
  /// nodes whose root-excluded paths total `hops` entries.
  void start(std::size_t nodes, std::size_t hops = 0);

  /// Appends a node under `parent` (already present); returns its id.
  NodeId add_node(NodeId parent, const Processor& proc);

  /// The recurrence, once: walks master→`dest` and returns the completion;
  /// `on_hop(sender, emission, link_free)` sees every hop.
  template <typename OnHop>
  Time walk(NodeId dest, Time size, Time release, OnHop&& on_hop) const;

  std::vector<Node> nodes_;
  std::vector<NodeId> paths_;  ///< concatenated root-excluded paths
  /// The mutable times: node `v`'s out-port frees at `times_[2v]`, its
  /// processor at `times_[2v + 1]`.
  std::vector<Time> times_;
};

/// Makespan of dispatching the given destination sequence ASAP.
Time asap_tree_makespan(const Tree& tree, const std::vector<NodeId>& dests);

/// Scratch-reusing variant: resets `state` and replays `dests` through it.
/// Identical result; zero allocations on a constructed state.
Time asap_tree_makespan(const std::vector<NodeId>& dests, TreeAsapState& state);

/// Earliest-completion-time forward greedy on a tree; returns the chosen
/// destination sequence (ties toward the smaller node id).
std::vector<NodeId> forward_greedy_tree(const Tree& tree, std::size_t n);
Time forward_greedy_tree_makespan(const Tree& tree, std::size_t n);

/// Scratch-reusing greedy: resets `state`, rebuilds the sequence into
/// `dests` (capacity reused) and returns the makespan alongside.  The
/// chosen sequence is identical to `forward_greedy_tree`.
Time forward_greedy_tree_into(std::size_t n, TreeAsapState& state, std::vector<NodeId>& dests);

/// Exhaustive exact optimum of `n` identical tasks from `state`'s platform
/// (reset first): branch and bound over destination sequences, nodes tried
/// in ascending id, exponential — small instances only.  `best`, when
/// given, receives the first optimal sequence found.
Time brute_force_makespan(TreeAsapState& state, std::size_t n,
                          std::vector<NodeId>* best = nullptr);

/// The same on a tree.  This is the ground truth the §8 covering
/// heuristics are measured against.
Time brute_force_tree_makespan(const Tree& tree, std::size_t n);

}  // namespace mst
