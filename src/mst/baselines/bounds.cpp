#include "mst/baselines/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 1/t with t == 0 meaning an infinitely fast resource.
double inv(Time t) { return t > 0 ? 1.0 / static_cast<double>(t) : kInf; }

/// Greedy one-port allocation: children offering rates `offers[i]` at
/// per-task port cost `costs[i]`; the port has one unit of time per time
/// unit.  Filling cheapest-cost first maximizes the total accepted rate
/// (the bandwidth-centric argument of [2]).  Sorts in place so warm scratch
/// callers stay allocation-free.
double one_port_fill(std::vector<std::pair<Time, double>>& cost_offer) {
  std::sort(cost_offer.begin(), cost_offer.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double budget = 1.0;
  double rate = 0.0;
  for (const auto& [cost, offer] : cost_offer) {
    if (budget <= 0.0) break;
    if (cost <= 0) {  // free link: take the whole offer
      rate += offer;
      continue;
    }
    const double take = std::min(offer, budget / static_cast<double>(cost));
    rate += take;
    budget -= take * static_cast<double>(cost);
  }
  return rate;
}

double one_port_fill(std::vector<std::pair<Time, double>>&& cost_offer) {
  return one_port_fill(cost_offer);
}

/// Ceiling of n/rate as a Time, robust to the fp representation.
Time rate_bound(std::size_t n, double rate) {
  if (!(rate > 0.0) || std::isinf(rate)) return 0;
  return static_cast<Time>(std::ceil(static_cast<double>(n) / rate - 1e-9));
}

}  // namespace

double chain_steady_state_rate(const Chain& chain) {
  // Backward nested-LP recursion: the sub-chain starting at k absorbs
  // lambda_k = min(1/c_k, 1/w_k + lambda_{k+1}) tasks per time unit.
  double lambda = 0.0;
  for (std::size_t k1 = chain.size(); k1 >= 1; --k1) {
    const std::size_t k = k1 - 1;
    lambda = std::min(inv(chain.comm(k)), inv(chain.work(k)) + lambda);
  }
  return lambda;
}

namespace {

/// The master's one-port fill over the legs' chain rates.
double legs_steady_state_rate(std::span<const Chain> legs, OnePortScratch& scratch) {
  scratch.clear();
  for (const Chain& leg : legs) {
    scratch.emplace_back(leg.comm(0), chain_steady_state_rate(leg));
  }
  return one_port_fill(scratch);
}

}  // namespace

double spider_steady_state_rate(const Spider& spider) {
  OnePortScratch scratch;
  scratch.reserve(spider.num_legs());
  return legs_steady_state_rate(spider.legs(), scratch);
}

namespace {

double tree_rate_rec(const Tree& tree, NodeId v) {
  double own = tree.is_root(v) ? 0.0 : inv(tree.proc(v).work);
  std::vector<std::pair<Time, double>> cost_offer;
  for (NodeId child : tree.children(v)) {
    cost_offer.emplace_back(tree.proc(child).comm, tree_rate_rec(tree, child));
  }
  return own + one_port_fill(std::move(cost_offer));
}

}  // namespace

double tree_steady_state_rate(const Tree& tree) {
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  return tree_rate_rec(tree, 0);
}

Time makespan_lower_bound(std::span<const Chain> legs, std::size_t n, OnePortScratch& scratch) {
  MST_REQUIRE(n >= 1, "need at least one task");
  // (a) LP/steady-state busy-time bound.
  Time lb = rate_bound(n, legs_steady_state_rate(legs, scratch));
  // (b) Master-port busy time: every task occupies the port for at least
  //     the cheapest first link; after the last emission the cheapest
  //     continuation still costs transit + work.
  // (c) Any single task pays its full path plus its work.
  Time min_c0 = kTimeInfinity;
  Time tail = kTimeInfinity;
  Time single = kTimeInfinity;
  for (const Chain& leg : legs) {
    min_c0 = std::min(min_c0, leg.comm(0));
    Time path = 0;  // links up to processor `q`, accumulated in O(leg length)
    for (std::size_t q = 0; q < leg.size(); ++q) {
      path += leg.comm(q);
      tail = std::min(tail, path - leg.comm(0) + leg.work(q));
      single = std::min(single, path + leg.work(q));
    }
  }
  lb = std::max(lb, static_cast<Time>(n) * min_c0 + tail);
  return std::max(lb, single);
}

Time makespan_lower_bound(std::span<const Chain> legs, std::size_t n) {
  OnePortScratch scratch;
  scratch.reserve(legs.size());
  return makespan_lower_bound(legs, n, scratch);
}

}  // namespace mst
