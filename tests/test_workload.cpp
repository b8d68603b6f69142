// The Workload value type: canonicalization, text round trips with fuzz
// rejection, generator determinism, and the simulator's release/size
// semantics.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mst/platform/tree.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/platform_sim.hpp"
#include "mst/workload/arrival.hpp"
#include "mst/workload/workload.hpp"
#include "mst/workload/workload_io.hpp"

namespace mst {
namespace {

TEST(Workload, IdenticalIsTheNeutralElement) {
  const Workload w = Workload::identical(5);
  EXPECT_EQ(w.count(), 5u);
  EXPECT_TRUE(w.uniform_sizes());
  EXPECT_FALSE(w.has_release_dates());
  EXPECT_FALSE(w.features().any());
  EXPECT_EQ(w.size_of(3), 1);
  EXPECT_EQ(w.release_of(3), 0);
  EXPECT_EQ(w.total_size(), 5);
  EXPECT_EQ(w.last_release(), 0);
  // Degenerate vectors normalize away: all-1 sizes / all-0 releases are the
  // identical workload.
  EXPECT_EQ(Workload(5, {1, 1, 1, 1, 1}, {0, 0, 0, 0, 0}), w);
}

TEST(Workload, CanonicalOrderSortsByReleaseThenSize) {
  const Workload w(4, {3, 1, 2, 1}, {9, 0, 9, 4});
  EXPECT_EQ(w.releases(), (std::vector<Time>{0, 4, 9, 9}));
  EXPECT_EQ(w.sizes(), (std::vector<Time>{1, 1, 2, 3}));
  // Equal task multisets compare equal regardless of input order.
  EXPECT_EQ(w, Workload(4, {1, 2, 3, 1}, {4, 9, 9, 0}));
  // prefix(k) is the k earliest-released tasks; its all-1 size vector
  // normalizes back to the uniform representation.
  const Workload p = w.prefix(2);
  EXPECT_EQ(p, Workload::released({0, 4}));
  EXPECT_TRUE(p.uniform_sizes());
  EXPECT_THROW(w.prefix(5), std::invalid_argument);
}

TEST(Workload, RejectsMalformedInputs) {
  EXPECT_THROW(Workload(3, {1, 2}, {}), std::invalid_argument);      // short sizes
  EXPECT_THROW(Workload(3, {}, {0, 1}), std::invalid_argument);      // short releases
  EXPECT_THROW(Workload(2, {0, 1}, {}), std::invalid_argument);      // size < 1
  EXPECT_THROW(Workload(2, {}, {-1, 0}), std::invalid_argument);     // negative release
}

TEST(WorkloadIo, RoundTripsEveryShape) {
  const std::vector<Workload> workloads{
      Workload(),
      Workload::identical(7),
      Workload::of_sizes({2, 1, 5}),
      Workload::released({0, 3, 3, 11}),
      Workload(3, {2, 2, 4}, {5, 0, 5}),
  };
  for (const Workload& w : workloads) {
    const std::string text = write_workload(w);
    EXPECT_EQ(parse_workload(text), w) << text;
    // Canonical text re-renders identically.
    EXPECT_EQ(write_workload(parse_workload(text)), text);
  }
}

TEST(WorkloadIo, ParsesCommentsAndEitherLineOrder) {
  const Workload w = parse_workload(
      "# a comment\n"
      "workload 3\n"
      "release 0 2 4   # staggered\n"
      "sizes 1 2 3\n");
  EXPECT_EQ(w.count(), 3u);
  EXPECT_EQ(w.releases(), (std::vector<Time>{0, 2, 4}));
}

TEST(WorkloadIo, FuzzRejection) {
  EXPECT_THROW(parse_workload(""), std::invalid_argument);
  EXPECT_THROW(parse_workload("platform 3\n"), std::invalid_argument);   // wrong header
  EXPECT_THROW(parse_workload("workload\n"), std::invalid_argument);     // missing count
  EXPECT_THROW(parse_workload("workload x\n"), std::invalid_argument);   // not a number
  EXPECT_THROW(parse_workload("workload -1\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 3\nsizes 1 2\n"), std::invalid_argument);  // short
  EXPECT_THROW(parse_workload("workload 2\nsizes 1 2 3\n"), std::invalid_argument);  // long
  EXPECT_THROW(parse_workload("workload 2\nsizes 0 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 2\nrelease -3 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 2\nsizes 1 1\nsizes 1 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 2\nbogus 1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 1\nrelease 0\ntrailing\n"), std::invalid_argument);
  // A count the file cannot back ends at the file's end, never in a
  // reservation of that many dates or sizes.
  EXPECT_THROW(parse_workload("workload 1000000000000\nrelease 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_workload("workload 1000000000000\nsizes 1\n"), std::invalid_argument);
}

TEST(WorkloadGenTest, DeterministicPerSeedAndValidated) {
  WorkloadGen gen;
  gen.sizes = SizeDist{SizeDist::Kind::kUniform, 1, 4};
  const Workload a = gen.make(64, 42);
  const Workload b = gen.make(64, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, gen.make(64, 43));
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_GE(a.size_of(i), 1);
    EXPECT_LE(a.size_of(i), 4);
  }

  WorkloadGen poisson;
  poisson.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, 5, 0};
  const Workload stream = poisson.make(50, 7);
  EXPECT_EQ(stream, poisson.make(50, 7));
  EXPECT_TRUE(stream.has_release_dates());
  // Releases come out sorted (Poisson clock is cumulative).
  for (std::size_t i = 1; i < stream.count(); ++i) {
    EXPECT_LE(stream.release_of(i - 1), stream.release_of(i));
  }
  EXPECT_EQ(poisson.label(), "poisson(5)");

  WorkloadGen bursts;
  bursts.arrival = ArrivalDist{ArrivalDist::Kind::kBursts, 4, 10};
  const Workload grouped = bursts.make(10, 1);
  EXPECT_EQ(grouped.release_of(0), 0);
  EXPECT_EQ(grouped.release_of(3), 0);
  EXPECT_EQ(grouped.release_of(4), 10);
  EXPECT_EQ(grouped.release_of(9), 20);

  WorkloadGen bad;
  bad.sizes = SizeDist{SizeDist::Kind::kUniform, 4, 1};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  EXPECT_THROW(bad.make(4, 1), std::invalid_argument);
}

/// A two-slave star for simulator semantics checks.
Tree two_slave_tree() {
  Tree tree;
  tree.add_node(0, {2, 3});
  tree.add_node(0, {1, 5});
  return tree;
}

TEST(SimWorkload, ReleaseDatesGateTheMasterEmissions) {
  const Tree tree = two_slave_tree();
  const Workload staggered = Workload::released({0, 10, 20});
  const std::vector<NodeId> dests{1, 2, 1};
  const sim::SimResult run = sim::simulate_dispatch(tree, dests, staggered);
  ASSERT_EQ(run.num_tasks(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(run.tasks[i].master_emission, staggered.release_of(i)) << i;
  }
  // The port sat idle waiting for the last arrival: its emission starts
  // exactly at the release date.
  EXPECT_EQ(run.tasks[2].master_emission, 20);
  // An all-zero release workload reproduces the identical run exactly.
  const sim::SimResult plain = sim::simulate_dispatch(tree, dests);
  const sim::SimResult zeroed = sim::simulate_dispatch(tree, dests, Workload::identical(3));
  EXPECT_EQ(plain.makespan, zeroed.makespan);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plain.tasks[i].master_emission, zeroed.tasks[i].master_emission);
    EXPECT_EQ(plain.tasks[i].end, zeroed.tasks[i].end);
  }
}

TEST(SimWorkload, SizesScaleLinksAndProcessors) {
  const Tree tree = two_slave_tree();
  // One task of size 3 to slave 1: emission 3*2, execution 3*3.
  const sim::SimResult run =
      sim::simulate_dispatch(tree, {1}, Workload::of_sizes({3}));
  ASSERT_EQ(run.num_tasks(), 1u);
  EXPECT_EQ(run.tasks[0].arrival, 6);
  EXPECT_EQ(run.tasks[0].end, 6 + 9);
  EXPECT_EQ(run.makespan, 15);
}

TEST(SimWorkload, OnlinePoliciesAcceptWorkloads) {
  const Tree tree = two_slave_tree();
  WorkloadGen gen;
  gen.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, 4, 0};
  const Workload stream = gen.make(8, 3);
  for (sim::OnlinePolicy policy : sim::all_online_policies()) {
    const sim::SimResult run = sim::simulate_online(tree, stream, policy, 5);
    ASSERT_EQ(run.num_tasks(), 8u) << to_string(policy);
    for (std::size_t i = 0; i < run.tasks.size(); ++i) {
      EXPECT_GE(run.tasks[i].master_emission, stream.release_of(i)) << to_string(policy);
    }
    // Reproducible per seed.
    EXPECT_EQ(run.makespan, sim::simulate_online(tree, stream, policy, 5).makespan);
  }
}

}  // namespace
}  // namespace mst
