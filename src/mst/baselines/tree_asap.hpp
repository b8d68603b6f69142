#pragma once

#include <cstddef>
#include <limits>
#include <span>
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

/// A deadline no completion passes: the makespan forms' "no deadline".
inline constexpr Time kNoDeadline = std::numeric_limits<Time>::max();

/// Incremental ASAP state: per node, when its out-port and its processor
/// become free.  The root→node paths are flattened into one table at
/// construction, and the earliest-completion pass has its buffer sized
/// there too, so `commit` and `earliest_completion` never allocate — the
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

  /// Rebuilds the state for `tree` (or a chain or spider, numbered as the
  /// constructors number them), all ports and processors free at 0.
  /// Allocation-free once the buffers have held a platform this large.
  void assign(const Tree& tree);
  void assign(const Chain& chain);
  void assign(const Spider& spider);

  /// Node count, the master (node 0) included.
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Number of hops from the master to `v` (a chain processor `k` is `k + 1`
  /// hops away).
  [[nodiscard]] std::size_t depth(NodeId v) const { return nodes_[v].depth; }

  /// Node `v`'s incoming link and work.
  [[nodiscard]] const Processor& proc(NodeId v) const { return nodes_[v].proc; }

  /// Which of the master's children `v` descends from, in the order they
  /// were added: a spider's leg, 0 on a chain.
  [[nodiscard]] std::size_t leg(NodeId v) const { return nodes_[v].leg; }

  /// When the master's out-port frees up: no later task leaves the master
  /// before it.
  [[nodiscard]] Time master_port_free() const { return times_[0]; }

  /// Appends a task to `dest` (a slave node); returns its completion time.
  /// `size` scales every hop and the execution; the master emission starts
  /// no earlier than `release` (defaults reproduce the identical-task
  /// arithmetic exactly, matching the simulator).
  Time commit(NodeId dest, Time size = 1, Time release = 0);

  /// Writes to `out[0, depth(dest))` the hop emissions, master first, of
  /// the task the last `commit` sent to `dest` with this `size`.  Each
  /// out-port on its path still frees when that task's hop ends, so an
  /// emission is that time less the hop; valid until the next commit.
  void hop_emissions(NodeId dest, Time size, Time* out) const;

  /// The slave a task of this `size` and `release` would complete on
  /// earliest, ties toward the smaller node id: the
  /// earliest-completion-time choice.  One ascending pass over the nodes
  /// (a parent is numbered before its children) gives every arrival,
  /// `ready[v] = advance(max(ready[parent], port_free[parent]), size, c_v)`
  /// from `ready[0] = release`, and with it every completion: `O(|V|)`,
  /// where one walk per slave would be `O(Σ depth)`.  The hops it times are
  /// the ones `commit` would, so an overflowing one throws the same error.
  [[nodiscard]] NodeId earliest_completion(Time size = 1, Time release = 0);

  /// The same choice on a read-only state: the arrivals go to `ready`,
  /// `size()` times the caller owns, and `ect_nodes` is not counted.  The
  /// stream driver hands its engine to a policy this way.
  [[nodiscard]] NodeId earliest_completion(Time size, Time release, std::span<Time> ready) const;

  /// Slave nodes `earliest_completion` has visited since the last
  /// `assign`: the engine's share of `core.asap.ect_nodes`.
  [[nodiscard]] std::size_t ect_nodes() const { return ect_nodes_; }

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
  /// The chain and spider forms of `assign`: master → one path per leg.
  void assign(std::span<const Chain> legs);

  struct Node {
    Processor proc;        ///< incoming link and work (unused for the master)
    NodeId parent = 0;     ///< smaller than the node's own id
    std::size_t path = 0;  ///< root-excluded root→node path: `paths_[path, path + depth)`
    std::size_t depth = 0;
    std::size_t leg = 0;   ///< the master's child it descends from (`leg`)
  };

  /// Empties the state down to the master, reserving room for `nodes`
  /// nodes whose root-excluded paths total `hops` entries.
  void start(std::size_t nodes, std::size_t hops = 0);

  /// Appends a node under `parent` (already present); returns its id.
  NodeId add_node(NodeId parent, const Processor& proc);

  std::vector<Node> nodes_;
  std::size_t legs_ = 0;       ///< children of the master so far
  std::vector<NodeId> paths_;  ///< concatenated root-excluded paths
  /// The mutable times: node `v`'s out-port frees at `times_[2v]`, its
  /// processor at `times_[2v + 1]`.
  std::vector<Time> times_;
  /// `earliest_completion`'s arrival time per node, sized by `assign`.
  std::vector<Time> ready_;
  std::size_t ect_nodes_ = 0;
};

/// Earliest-completion-time forward greedy from `state`'s platform: resets
/// `state`, rebuilds the chosen destination sequence of `n` tasks into
/// `dests` (ties toward the smaller node id, capacity reused) and returns
/// its makespan.  With a `deadline` it is the decision form: the run stops
/// before the first task that would complete after it, and `dests` holds
/// the tasks kept.  The greedy is prefix-stable, so those are the most
/// tasks its runs complete by `deadline`.
Time forward_greedy_tree_into(std::size_t n, TreeAsapState& state, std::vector<NodeId>& dests,
                              Time deadline = kNoDeadline);

/// Exhaustive exact optimum of `n` identical tasks from `state`'s platform
/// (reset first): branch and bound over destination sequences, nodes tried
/// in ascending id, exponential — small instances only.  `best`, when
/// given, receives the first optimal sequence found.
Time brute_force_makespan(TreeAsapState& state, std::size_t n,
                          std::vector<NodeId>* best = nullptr);

/// The same on a tree.  This is the ground truth the §8 covering
/// heuristics are measured against.
// mstlint: allow-next-line(tests-only-api) -- ROADMAP item 20's tree bound and brute-force entry
Time brute_force_tree_makespan(const Tree& tree, std::size_t n);

}  // namespace mst
