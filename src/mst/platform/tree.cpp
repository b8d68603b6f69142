#include "mst/platform/tree.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

Tree::Tree() {
  parent_.push_back(0);
  children_.emplace_back();
  proc_.push_back(Processor{0, 1});  // dummy for the master slot
}

NodeId Tree::add_node(NodeId parent, Processor proc) {
  MST_REQUIRE(parent < parent_.size(), "parent node does not exist");
  MST_REQUIRE(proc.comm >= 0, "link latency must be non-negative");
  MST_REQUIRE(proc.work > 0, "processing time must be strictly positive");
  const NodeId id = parent_.size();
  parent_.push_back(parent);
  children_.emplace_back();
  proc_.push_back(proc);
  children_[parent].push_back(id);
  return id;
}

NodeId Tree::parent(NodeId v) const {
  MST_REQUIRE(v < parent_.size() && v != 0, "node has no parent");
  return parent_[v];
}

const std::vector<NodeId>& Tree::children(NodeId v) const {
  MST_REQUIRE(v < children_.size(), "node does not exist");
  return children_[v];
}

const Processor& Tree::proc(NodeId v) const {
  MST_REQUIRE(v < proc_.size() && v != 0, "the master has no processor record");
  return proc_[v];
}

std::size_t Tree::depth(NodeId v) const {
  MST_REQUIRE(v < parent_.size(), "node does not exist");
  std::size_t d = 0;
  while (v != 0) {
    v = parent_[v];
    ++d;
  }
  return d;
}

std::vector<NodeId> Tree::path_from_root(NodeId v) const {
  MST_REQUIRE(v < parent_.size() && v != 0, "path defined for slaves only");
  std::vector<NodeId> path;
  while (v != 0) {
    path.push_back(v);
    v = parent_[v];
  }
  std::reverse(path.begin(), path.end());
  return path;
}

namespace {

/// Master → one path per leg, node ids leg by leg.
Tree tree_from_legs(std::span<const Chain> legs) {
  Tree tree;
  for (const Chain& leg : legs) {
    NodeId parent = 0;
    for (const Processor& p : leg.procs()) parent = tree.add_node(parent, p);
  }
  return tree;
}

}  // namespace

Tree tree_from_chain(const Chain& chain) { return tree_from_legs(legs_of(chain)); }

Tree tree_from_spider(const Spider& spider) { return tree_from_legs(legs_of(spider)); }

NodeId spider_node(const Spider& spider, const SpiderDest& dest) {
  MST_REQUIRE(dest.proc < spider.leg(dest.leg).size(), "destination outside its spider leg");
  NodeId node = 1 + dest.proc;
  for (std::size_t l = 0; l < dest.leg; ++l) node += spider.leg(l).size();
  return node;
}

std::string Tree::describe() const {
  std::ostringstream os;
  os << "tree{n=" << size() << ", slaves=" << num_slaves() << '}';
  return os.str();
}

}  // namespace mst
