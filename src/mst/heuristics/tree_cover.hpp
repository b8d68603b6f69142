#pragma once

#include <cstddef>
#include <vector>

#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

/// \file tree_cover.hpp
/// Covering a general tree with a spider — the paper's stated long-term
/// plan (§8: "provide good heuristics for scheduling on complicated graphs
/// … by covering those graphs with simpler structures").
///
/// The cover keeps, under every child of the root, a single root-to-leaf
/// path (a chain); the chosen path maximizes the chain's steady-state rate.
/// Off-path processors are ignored — the resulting spider is a sub-platform
/// of the tree, so any spider schedule maps verbatim onto the tree and the
/// optimal spider makespan is an upper bound for the tree optimum.  The
/// TREE experiment compares this against the tree's bandwidth-centric
/// steady-state bound and the online policies that use every node.

namespace mst {

/// A spider embedded in a tree.
struct SpiderCover {
  Spider spider;
  /// `node_of[l][d]` = the tree node serving as processor `d` of leg `l`.
  std::vector<std::vector<NodeId>> node_of;
};

/// Chooses, for every child of the root, the descendant path with the
/// highest chain steady-state rate (ties toward the first leaf in child
/// order).  One depth-first walk per root child keeps only the best path
/// seen so far, so the work and the allocations depend on the tree alone.
/// Requires at least one slave.
SpiderCover cover_tree_with_spider(const Tree& tree);

}  // namespace mst
