// Tests of the Fig 6 / Fig 7 virtual single-task-node expansions.

#include <gtest/gtest.h>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/virtual_nodes.hpp"

namespace mst {
namespace {

TEST(VirtualNodes, Fig6ComputeBoundExpansion) {
  // Slave (c=2, w=5): m = 5, processing times 5, 10, 15, ...
  const auto nodes = expand_fork_slave(Processor{2, 5}, 3, /*t_lim=*/18, /*max=*/10);
  ASSERT_EQ(nodes.size(), 3u);  // 5+2<=18, 10+2<=18, 15+2<=18, 20+2>18
  for (std::size_t q = 0; q < nodes.size(); ++q) {
    EXPECT_EQ(nodes[q].source, 3u);
    EXPECT_EQ(nodes[q].rank, q);
    EXPECT_EQ(nodes[q].comm, 2);
    EXPECT_EQ(nodes[q].exec, 5 + static_cast<Time>(q) * 5);
  }
  EXPECT_EQ(nodes[0].deadline(18), 13);
}

TEST(VirtualNodes, Fig6LinkBoundExpansion) {
  // Slave (c=4, w=1): m = 4 — arrivals pace the executions.
  const auto nodes = expand_fork_slave(Processor{4, 1}, 0, /*t_lim=*/14, /*max=*/10);
  ASSERT_EQ(nodes.size(), 3u);  // 1, 5, 9 (13+4 > 14)
  EXPECT_EQ(nodes[0].exec, 1);
  EXPECT_EQ(nodes[1].exec, 5);
  EXPECT_EQ(nodes[2].exec, 9);
}

TEST(VirtualNodes, ExpansionHonorsCapAndWindow) {
  EXPECT_EQ(expand_fork_slave(Processor{1, 1}, 0, 100, 4).size(), 4u);
  EXPECT_TRUE(expand_fork_slave(Processor{3, 5}, 0, 7, 10).empty());  // 5+3 > 7
  EXPECT_TRUE(expand_fork_slave(Processor{1, 1}, 0, 0, 10).empty());
}

TEST(VirtualNodes, SlaveExpansionsStopAtTheWindow) {
  const auto slow = expand_fork_slave(Processor{2, 5}, 0, 14, 10);
  ASSERT_EQ(slow.size(), 2u);  // exec 5, 10 (10 + 2 <= 14; 15 + 2 > 14)
  EXPECT_EQ(slow[1].exec, 10);
  const auto fast = expand_fork_slave(Processor{4, 1}, 1, 14, 10);
  ASSERT_EQ(fast.size(), 3u);  // exec 1, 5, 9
  EXPECT_EQ(fast[2].exec, 9);
  EXPECT_EQ(fast[2].source, 1u);
}

TEST(VirtualNodes, Fig7LegExpansionMatchesPaper) {
  // The Fig 2 chain within T_lim = 14 gives virtual processing times
  // {12, 10, 8, 6, 3} over a link of latency 2 — exactly Fig 7.
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainSchedule within = ChainScheduler::schedule_within(chain, 14, 100);
  ASSERT_EQ(within.num_tasks(), 5u);
  const auto nodes = expand_leg(within, 7, 14);
  ASSERT_EQ(nodes.size(), 5u);
  const std::vector<Time> expected_exec = {12, 10, 8, 6, 3};
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    EXPECT_EQ(nodes[j].exec, expected_exec[j]) << "node " << j;
    EXPECT_EQ(nodes[j].comm, 2);
    EXPECT_EQ(nodes[j].source, 7u);
    EXPECT_EQ(nodes[j].rank, nodes.size() - 1 - j);
  }
}

TEST(VirtualNodes, LegExpansionDeadlineIsEmissionCompletion) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const ChainSchedule within = ChainScheduler::schedule_within(chain, 14, 100);
  const auto nodes = expand_leg(within, 0, 14);
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    EXPECT_EQ(nodes[j].deadline(14), within.tasks[j].emissions.front() + chain.comm(0));
  }
}

TEST(VirtualNodes, ToStringIsInformative) {
  const VirtualNode node{1, 2, 3, 4};
  EXPECT_EQ(to_string(node), "node{source=1, rank=2, comm=3, exec=4}");
}

}  // namespace
}  // namespace mst
