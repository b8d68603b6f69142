#include "mst/baselines/tree_asap.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// `from + size·duration`: the end of a `size`-scaled hop or execution.
/// Every time the engine forms passes through here, checked.
Time advance(Time from, Time size, Time duration) {
  Time span = 0;
  Time end = 0;
  const bool overflow = __builtin_mul_overflow(size, duration, &span) ||
                        __builtin_add_overflow(from, span, &end);
  MST_REQUIRE(!overflow, "an ASAP time exceeds the largest time 9223372036854775807");
  return end;
}

/// Length of the path table of a chain of `p` processors: `1 + ... + p`.
std::size_t chain_hops(std::size_t p) { return p * (p + 1) / 2; }

}  // namespace

TreeAsapState::TreeAsapState(const Tree& tree) { assign(tree); }

TreeAsapState::TreeAsapState(const Chain& chain) { assign(chain); }

TreeAsapState::TreeAsapState(const Spider& spider) { assign(spider); }

void TreeAsapState::assign(const Chain& chain) { assign(legs_of(chain)); }

void TreeAsapState::assign(const Spider& spider) { assign(legs_of(spider)); }

void TreeAsapState::assign(std::span<const Chain> legs) {
  std::size_t nodes = 1;
  std::size_t hops = 0;
  for (const Chain& leg : legs) {
    nodes += leg.size();
    hops += chain_hops(leg.size());
  }
  start(nodes, hops);
  for (const Chain& leg : legs) {
    NodeId parent = 0;
    for (const Processor& proc : leg.procs()) parent = add_node(parent, proc);
  }
}

void TreeAsapState::assign(const Tree& tree) {
  start(tree.size());
  for (NodeId v = 1; v < tree.size(); ++v) add_node(tree.parent(v), tree.proc(v));
}

void TreeAsapState::start(std::size_t nodes, std::size_t hops) {
  nodes_.clear();
  paths_.clear();
  nodes_.reserve(nodes);
  paths_.reserve(hops);
  times_.assign(2 * nodes, 0);
  ready_.resize(nodes);
  nodes_.push_back(Node{});
  legs_ = 0;
  ect_nodes_ = 0;
}

NodeId TreeAsapState::add_node(NodeId parent, const Processor& proc) {
  const NodeId v = nodes_.size();
  const Node& up = nodes_[parent];
  Node node{proc, parent, paths_.size(), up.depth + 1, parent == 0 ? legs_++ : up.leg};
  for (std::size_t i = up.path; i < up.path + up.depth; ++i) {
    const NodeId hop = paths_[i];
    paths_.push_back(hop);
  }
  paths_.push_back(v);
  nodes_.push_back(node);
  return v;
}

// mstlint: zero-alloc
void TreeAsapState::reset() { std::fill(times_.begin(), times_.end(), 0); }

void TreeAsapState::save(Time* out) const { std::copy(times_.begin(), times_.end(), out); }

void TreeAsapState::restore(const Time* in) { std::copy_n(in, times_.size(), times_.begin()); }

Time TreeAsapState::commit(NodeId dest, Time size, Time release) {
  MST_REQUIRE(dest != 0 && dest < nodes_.size(), "destination must be a slave node");
  const Node& target = nodes_[dest];
  Time ready = release;
  NodeId sender = 0;
  for (const NodeId* hop = &paths_[target.path]; hop != &paths_[target.path] + target.depth;
       ++hop) {
    ready = advance(std::max(ready, times_[2 * sender]), size, nodes_[*hop].proc.comm);
    times_[2 * sender] = ready;
    sender = *hop;
  }
  const Time end = advance(std::max(ready, times_[2 * dest + 1]), size, target.proc.work);
  times_[2 * dest + 1] = end;
  return end;
}

void TreeAsapState::hop_emissions(NodeId dest, Time size, Time* out) const {
  const Node& target = nodes_[dest];
  NodeId sender = 0;
  for (const NodeId* hop = &paths_[target.path]; hop != &paths_[target.path] + target.depth;
       ++hop) {
    *out++ = times_[2 * sender] - size * nodes_[*hop].proc.comm;
    sender = *hop;
  }
}

NodeId TreeAsapState::earliest_completion(Time size, Time release) {
  const NodeId best = earliest_completion(size, release, ready_);
  ect_nodes_ += nodes_.size() - 1;
  return best;
}

NodeId TreeAsapState::earliest_completion(Time size, Time release, std::span<Time> ready) const {
  MST_REQUIRE(nodes_.size() >= 2, "platform has no slaves");
  MST_ASSERT(ready.size() == nodes_.size());
  ready[0] = release;
  NodeId best = 0;
  Time best_completion = 0;
  for (NodeId v = 1; v < nodes_.size(); ++v) {
    const Node& node = nodes_[v];
    ready[v] = advance(std::max(ready[node.parent], times_[2 * node.parent]), size,
                       node.proc.comm);
    const Time completion = advance(std::max(ready[v], times_[2 * v + 1]), size, node.proc.work);
    if (best == 0 || completion < best_completion) {
      best_completion = completion;
      best = v;
    }
  }
  return best;
}

Time forward_greedy_tree_into(std::size_t n, TreeAsapState& state, std::vector<NodeId>& dests,
                              Time deadline) {
  MST_REQUIRE(state.size() >= 2, "tree has no slaves");
  state.reset();
  dests.clear();
  Time makespan = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId best = state.earliest_completion();
    const Time end = state.commit(best);
    if (end > deadline) break;
    makespan = std::max(makespan, end);
    dests.push_back(best);
  }
  return makespan;
}
// mstlint: zero-alloc-end

/// Branch-and-bound DFS over destination sequences: at each depth the
/// state is saved once and restored before each branch.  A branch is pruned
/// once its partial makespan reaches the best complete one, so the first
/// optimal sequence found is kept.
class TreeSearch {
 public:
  TreeSearch(TreeAsapState& state, std::size_t n)
      : state_(state), n_(n), snapshots_(n * state.saved_size()) {
    current_.reserve(n);
  }

  Time run(std::vector<NodeId>* best) {
    state_.reset();
    dfs(0);
    if (best != nullptr) *best = best_sequence_;
    return best_;
  }

 private:
  void dfs(Time current_makespan) {
    if (found_ && current_makespan >= best_) return;
    if (current_.size() == n_) {
      best_ = current_makespan;
      best_sequence_ = current_;
      found_ = true;
      return;
    }
    Time* snapshot = &snapshots_[current_.size() * state_.saved_size()];
    state_.save(snapshot);
    for (NodeId dest = 1; dest < state_.size(); ++dest) {
      state_.restore(snapshot);
      const Time end = state_.commit(dest);
      current_.push_back(dest);
      dfs(std::max(current_makespan, end));
      current_.pop_back();
    }
  }

  TreeAsapState& state_;
  std::size_t n_;
  bool found_ = false;
  Time best_ = 0;
  std::vector<NodeId> current_;
  std::vector<NodeId> best_sequence_;
  std::vector<Time> snapshots_;  ///< the state on entering each depth
};

Time brute_force_makespan(TreeAsapState& state, std::size_t n, std::vector<NodeId>* best) {
  MST_REQUIRE(n >= 1, "need at least one task");
  MST_REQUIRE(state.size() >= 2, "platform has no slaves");
  return TreeSearch(state, n).run(best);
}

Time brute_force_tree_makespan(const Tree& tree, std::size_t n) {
  MST_REQUIRE(n >= 1, "need at least one task");
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  TreeAsapState state(tree);
  return brute_force_makespan(state, n);
}

}  // namespace mst
