#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/platform/processor.hpp"
#include "mst/platform/spider.hpp"

/// \file tree.hpp
/// General tree platform — the target the paper names as future work (§8).
/// The library schedules chains and spiders optimally; trees are handled by
/// the covering heuristics in `mst/heuristics/`, which need this structure.

namespace mst {

/// Node id inside a Tree.  Node 0 is always the master (root); the master has
/// no incoming link and does not compute.
using NodeId = std::size_t;

/// A rooted tree of slave processors.  Every non-root node carries the
/// latency of the link to its parent (`comm`) and its processing time
/// (`work`); the one-port rule applies at every node: at most one outgoing
/// emission at a time and at most one incoming reception at a time.
class Tree {
 public:
  /// Creates a tree containing only the master.
  Tree();

  /// Adds a slave under `parent` and returns its id.  Throws on invalid
  /// parent or invalid processor values.
  NodeId add_node(NodeId parent, Processor proc);

  [[nodiscard]] std::size_t size() const { return parent_.size(); }
  [[nodiscard]] std::size_t num_slaves() const { return size() - 1; }

  [[nodiscard]] NodeId parent(NodeId v) const;
  [[nodiscard]] const std::vector<NodeId>& children(NodeId v) const;
  [[nodiscard]] const Processor& proc(NodeId v) const;  ///< throws for the root
  [[nodiscard]] bool is_root(NodeId v) const { return v == 0; }

  /// Depth of `v` (root has depth 0).
  [[nodiscard]] std::size_t depth(NodeId v) const;

  /// The node ids on the path root→`v`, excluding the root.
  [[nodiscard]] std::vector<NodeId> path_from_root(NodeId v) const;

  /// Construct a random-shaped tree is provided by `mst/platform/generator.hpp`.
  [[nodiscard]] std::string describe() const;

  /// Structural equality (same parents and same processors in id order);
  /// the scenario sweep specs compare embedded platforms with this.
  friend bool operator==(const Tree&, const Tree&) = default;

 private:
  std::vector<NodeId> parent_;                 // parent_[0] == 0 (unused)
  std::vector<std::vector<NodeId>> children_;  // adjacency
  std::vector<Processor> proc_;                // proc_[0] is a dummy
};

/// Embeds a chain as a tree (master → single path).
Tree tree_from_chain(const Chain& chain);

/// Embeds a spider as a tree (master → one path per leg).  Node ids are
/// assigned leg by leg, depth first, so leg `l` processor `d` is node
/// `1 + sum(len of legs < l) + d`.
Tree tree_from_spider(const Spider& spider);

/// The node id of `dest` in `tree_from_spider(spider)`.  Throws unless
/// `dest` names a processor of its own leg.
NodeId spider_node(const Spider& spider, const SpiderDest& dest);

}  // namespace mst
