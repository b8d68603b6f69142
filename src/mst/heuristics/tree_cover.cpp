#include "mst/heuristics/tree_cover.hpp"

#include "mst/baselines/bounds.hpp"
#include "mst/common/assert.hpp"

namespace mst {

namespace {

Chain chain_of_path(const Tree& tree, const std::vector<NodeId>& path) {
  std::vector<Processor> procs;
  procs.reserve(path.size());
  for (NodeId v : path) procs.push_back(tree.proc(v));
  return Chain(std::move(procs));
}

/// Depth-first walk over every root-child-to-leaf path under `v` (`path`
/// holds the nodes above `v`), in leaf order, keeping the first path of
/// strictly highest steady-state rate in `best`.
void best_rate_path(const Tree& tree, NodeId v, std::vector<NodeId>& path,
                    std::vector<NodeId>& best, double& best_rate) {
  path.push_back(v);
  if (tree.children(v).empty()) {
    const double rate = chain_steady_state_rate(chain_of_path(tree, path));
    if (rate > best_rate) {
      best_rate = rate;
      best = path;
    }
  } else {
    for (NodeId child : tree.children(v)) best_rate_path(tree, child, path, best, best_rate);
  }
  path.pop_back();
}

}  // namespace

SpiderCover cover_tree_with_spider(const Tree& tree) {
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  SpiderCover cover;
  std::vector<Chain> legs;
  std::vector<NodeId> path;
  for (NodeId head : tree.children(0)) {
    std::vector<NodeId> best;
    double best_rate = -1.0;
    best_rate_path(tree, head, path, best, best_rate);
    MST_ASSERT(!best.empty());
    legs.push_back(chain_of_path(tree, best));
    cover.node_of.push_back(std::move(best));
  }
  cover.spider = Spider(std::move(legs));
  return cover;
}

}  // namespace mst
