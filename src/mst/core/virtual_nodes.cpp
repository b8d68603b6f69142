#include "mst/core/virtual_nodes.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "mst/common/assert.hpp"

namespace mst {

std::string to_string(const VirtualNode& node) {
  std::ostringstream os;
  os << "node{source=" << node.source << ", rank=" << node.rank << ", comm=" << node.comm
     << ", exec=" << node.exec << '}';
  return os.str();
}

namespace {

/// The number of Fig 6 nodes of `slave` within `t_lim`, at most
/// `max_per_slave` (the closed form in the header).
std::size_t fork_node_count(const Processor& slave, Time t_lim, std::size_t max_per_slave) {
  if (t_lim - slave.work < slave.comm) return 0;  // `t_lim >= 0` and `w > 0`: no overflow
  const Time m = std::max(slave.comm, slave.work);
  const auto ranks = static_cast<std::uint64_t>((t_lim - slave.work - slave.comm) / m) + 1;
  return static_cast<std::size_t>(std::min<std::uint64_t>(ranks, max_per_slave));
}

}  // namespace

std::vector<VirtualNode> expand_fork_slave(const Processor& slave, std::size_t slave_index,
                                           Time t_lim, std::size_t max_per_slave) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  std::vector<VirtualNode> nodes;
  const Time m = std::max(slave.comm, slave.work);
  const std::size_t count = fork_node_count(slave, t_lim, max_per_slave);
  for (std::size_t q = 0; q < count; ++q) {
    nodes.push_back(VirtualNode{slave_index, q, slave.comm, slave.work + static_cast<Time>(q) * m});
  }
  return nodes;
}

std::vector<VirtualNode> expand_leg(const ChainSchedule& leg_schedule, std::size_t leg_index,
                                    Time t_lim) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  const Time c1 = leg_schedule.chain.comm(0);
  std::vector<VirtualNode> nodes;
  const std::size_t n = leg_schedule.tasks.size();
  nodes.reserve(n);
  // Tasks are in ascending first-emission order; the *latest* task has the
  // smallest exec, i.e. rank 0.
  for (std::size_t j = 0; j < n; ++j) {
    const ChainTask& t = leg_schedule.tasks[j];
    MST_REQUIRE(!t.emissions.empty(), "leg schedule task without emissions");
    const Time first = t.emissions.front();
    MST_ASSERT(first >= 0 && first + c1 <= t_lim);
    nodes.push_back(VirtualNode{leg_index, n - 1 - j, c1, t_lim - first - c1});
  }
  return nodes;
}

}  // namespace mst
