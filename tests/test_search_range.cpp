// The spider makespan search on one built instance, forks included as
// unit-leg spiders: the bounds it bisects between, the probes it runs, the
// p-way merge that builds its EDD instance, and the overflow-checked search
// tops.
//
//   * The release one-port floor is a lower bound: never above the
//     optimum, on random forks and spiders, identical and release-dated,
//     nor above the brute-force optimum at small sizes — release-gated when
//     the tasks have release dates.
//   * A release-dated search is bracketed by `[LB, UB]` — the floor or the
//     identical-task optimum, and that optimum's release-delayed selection
//     — and gives the horizon and schedule of the full-range search
//     (`tests/support/full_range_release_search.hpp`) on random forks and
//     spiders, with `LB <= T* <= UB` and the DP reaching `n` at `UB`.
//   * A platform whose floor meets the top — one source with the minimum
//     first link and the minimum reach, no slower than its link — solves
//     with no probe; every search stays within
//     `ceil(log2(top - floor + 1))` probes.
//   * The merged instance is the `(deadline, comm, id)` order of the node
//     enumeration, ties included; for a fork, its `(deadline, comm)` order
//     is that of the Fig 6 nodes.
//   * Pipelines that overflow `Time` are skipped; when all do, the search is
//     rejected with `std::invalid_argument`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "mst/baselines/brute_force.hpp"
#include "mst/baselines/tree_asap.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/core/virtual_nodes.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/arrival.hpp"
#include "mst/workload/workload.hpp"
#include "support/full_range_release_search.hpp"

namespace mst {
namespace {

Workload released_workload(Rng& rng, std::size_t n) {
  std::vector<Time> release(n);
  Time t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.4)) t += rng.uniform(0, 12);
    release[i] = t;
  }
  return Workload::released(std::move(release));
}

Workload random_workload(Rng& rng, std::size_t n) {
  return rng.chance(0.5) ? Workload::identical(n) : released_workload(rng, n);
}

GeneratorParams params_of(Rng& rng, int trial) {
  return GeneratorParams{1, rng.uniform(2, 12), all_platform_classes()[trial % 5]};
}

/// `ceil(log2(range))` for `range >= 1`.
std::size_t log2_ceil(Time range) {
  std::size_t bits = 0;
  while ((Time{1} << bits) < range) ++bits;
  return bits;
}

/// An instance as `(deadline, comm, id)` triples.
using Triple = std::tuple<Time, Time, std::size_t>;

std::vector<Triple> triples(const std::vector<EddJob>& edd) {
  std::vector<Triple> out;
  for (const EddJob& job : edd) out.emplace_back(job.deadline, job.proc_time, job.id);
  return out;
}

/// The reference instance: virtual nodes numbered in enumeration order,
/// sorted by `(deadline, comm, id)` — `EddJob`'s EDD order, the one the
/// positional-release DP and the Moore–Hodgson oracle break ties by.
std::vector<Triple> reference_order(const std::vector<VirtualNode>& nodes, Time horizon) {
  std::vector<Triple> out;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    out.emplace_back(nodes[id].deadline(horizon), nodes[id].comm, id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SearchRange, OnePortFloorNeverExceedsTheOptimum) {
  Rng rng(0xF100);
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  SpiderSchedule fork_out;
  SpiderSchedule spider_out;
  for (int trial = 0; trial < 150; ++trial) {
    const GeneratorParams params = params_of(rng, trial);
    const Workload workload = random_workload(rng, static_cast<std::size_t>(rng.uniform(1, 24)));
    const Fork fork = random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 8)), params);
    const Spider spider =
        random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 5)), 1, 4, params);
    ForkScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
    EXPECT_LE(fork_scratch.solve.count.floor, fork_out.makespan()) << fork.describe();
    SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    EXPECT_LE(spider_scratch.count.floor, spider_out.makespan()) << spider.describe();
  }
}

TEST(SearchRange, OnePortFloorNeverExceedsTheBruteForceOptimum) {
  Rng rng(0xF101);
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  SpiderSchedule fork_out;
  SpiderSchedule spider_out;
  for (int trial = 0; trial < 60; ++trial) {
    const GeneratorParams params = params_of(rng, trial);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 5));
    const Fork fork = random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 3)), params);
    const Spider spider =
        random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 3)), 1, 2, params);
    ForkScheduler::schedule_into(fork, Workload::identical(n), fork_scratch, fork_out);
    EXPECT_LE(fork_scratch.solve.count.floor, brute_force_makespan(Spider::from_fork(fork), n))
        << fork.describe() << " n=" << n;
    SpiderScheduler::schedule_into(spider, Workload::identical(n), spider_scratch, spider_out);
    EXPECT_LE(spider_scratch.count.floor, brute_force_makespan(spider, n))
        << spider.describe() << " n=" << n;
  }
}

/// The exhaustive release-gated optimum of `workload` on `spider`: every
/// destination sequence timed ASAP, the j-th emission no earlier than the
/// j-th release date (the dates bind positionally).
Time release_gated_optimum(const Spider& spider, const Workload& workload) {
  TreeAsapState state(spider);
  const std::size_t n = workload.count();
  std::vector<Time> saved(state.saved_size() * n);
  Time best = kTimeInfinity;
  const auto search = [&](const auto& self, std::size_t j, Time makespan) -> void {
    if (makespan >= best) return;
    if (j == n) {
      best = makespan;
      return;
    }
    Time* const snapshot = saved.data() + j * state.saved_size();
    state.save(snapshot);
    for (NodeId v = 1; v < state.size(); ++v) {
      const Time end = state.commit(v, 1, workload.release_of(j));
      self(self, j + 1, std::max(makespan, end));
      state.restore(snapshot);
    }
  };
  search(search, 0, 0);
  return best;
}

TEST(SearchRange, ReleaseFloorNeverExceedsTheReleaseGatedOptimum) {
  Rng rng(0xF105);
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  SpiderSchedule out;
  for (int trial = 0; trial < 60; ++trial) {
    const GeneratorParams params = params_of(rng, trial);
    const Workload workload = released_workload(rng, static_cast<std::size_t>(rng.uniform(1, 5)));
    const Fork fork = random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 3)), params);
    const Spider spider =
        random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 3)), 1, 2, params);
    ForkScheduler::schedule_into(fork, workload, fork_scratch, out);
    EXPECT_LE(fork_scratch.solve.count.floor,
              release_gated_optimum(Spider::from_fork(fork), workload))
        << fork.describe() << " " << workload.describe();
    SpiderScheduler::schedule_into(spider, workload, spider_scratch, out);
    EXPECT_LE(spider_scratch.count.floor, release_gated_optimum(spider, workload))
        << spider.describe() << " " << workload.describe();
  }
}

/// `n` release dates of shape `shape % 4`: Poisson arrivals, bursts, a
/// periodic stream, or all equal.
Workload shaped_releases(Rng& rng, std::size_t n, int shape) {
  using Kind = ArrivalDist::Kind;
  const auto seed = static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
  switch (shape % 4) {
    case 0:
      return WorkloadGen{{}, {Kind::kPoisson, rng.uniform(1, 8), 0}}.make(n, seed);
    case 1:
      return WorkloadGen{{}, {Kind::kBursts, rng.uniform(1, 8), rng.uniform(1, 30)}}.make(n, seed);
    case 2:
      return WorkloadGen{{}, {Kind::kPeriodic, rng.uniform(1, 6), 0}}.make(n, seed);
    default:
      return Workload::released(std::vector<Time>(n, rng.uniform(1, 40)));
  }
}

/// A fork whose slaves tie on their node deadlines but not on `c_1`: a
/// slave `(c, w)` with `c <= w` has its nodes due at `T − w − i·w`, so
/// slaves of one `w` tie rank by rank whatever their `c`.
Fork deadline_tied_fork(Rng& rng) {
  std::vector<Processor> slaves(static_cast<std::size_t>(rng.uniform(2, 6)));
  const Time w = rng.uniform(2, 6);
  for (Processor& slave : slaves) slave = Processor{rng.uniform(1, w), w};
  return Fork(slaves);
}

/// The bracketed search on `spider` against the full-range oracle: the same
/// horizon (a release-dated schedule ends at its horizon) and schedule,
/// `LB <= T* <= UB`, and the DP reaching `n` at `UB`.
void expect_bracket_matches_full_range(const Spider& spider, const Workload& workload,
                                       SpiderSolveScratch& scratch) {
  SpiderSchedule out;
  SpiderScheduler::schedule_into(spider, workload, scratch, out);
  const Time lower = scratch.count.floor;
  const Time upper = scratch.count.top;
  Time horizon = 0;
  const SpiderSchedule expected = oracle::full_range_release_schedule(spider, workload, &horizon);
  const std::string where = spider.describe() + " " + workload.describe();
  EXPECT_EQ(out.makespan(), horizon) << where;
  EXPECT_EQ(out, expected) << where;
  EXPECT_LE(lower, horizon) << where;
  EXPECT_LE(horizon, upper) << where;
  SpiderCountScratch count;
  EXPECT_EQ(SpiderScheduler::count_within(spider, upper, workload, workload.count(), count),
            workload.count())
      << where;
}

TEST(SearchRange, BracketedReleaseSearchMatchesTheFullRangeOracle) {
  Rng rng(0xF106);
  SpiderSolveScratch scratch;
  for (int trial = 0; trial < 1500; ++trial) {
    const auto n = static_cast<std::size_t>(trial % 64 + 1);
    const Workload workload = shaped_releases(rng, n, trial);
    if (!workload.has_release_dates()) continue;  // a lone task released at 0
    const GeneratorParams params{1, trial % 3 == 0 ? 3 : rng.uniform(2, 12),
                                 all_platform_classes()[trial % 5]};
    const Spider spider =
        trial % 3 == 1 ? Spider::from_fork(deadline_tied_fork(rng))
        : trial % 3 == 2
            ? Spider::from_fork(random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 8)), params))
            : random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 5)), 1, 3, params);
    expect_bracket_matches_full_range(spider, workload, scratch);
  }
  // A single task.
  expect_bracket_matches_full_range(Spider::from_fork(Fork({{3, 2}, {1, 5}})),
                                    Workload::released({4}), scratch);
}

TEST(SearchRange, PortBoundSolvesRunNoProbe) {
  // The cheapest link (c = 2) leads to a slave no slower than it (w = 1),
  // which also has the smallest c + w: the floor (n-1)·2 + 3 is that
  // slave's own pipeline, the search's top.
  const Fork fork({{2, 1}, {3, 1}, {4, 2}, {2, 2}});
  const Spider spider{Chain({{2, 1}, {5, 5}}), Chain({{3, 4}}), Chain({{4, 1}, {1, 1}})};
  for (const std::size_t n : {1u, 7u, 64u}) {
    const Workload workload = Workload::identical(n);
    const Time floor = 2 * static_cast<Time>(n - 1) + 3;

    ForkCountScratch fork_scratch;
    SpiderSchedule fork_out;
    ForkScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
    EXPECT_EQ(fork_scratch.solve.count.probes, 0u) << "n=" << n;
    EXPECT_EQ(fork_scratch.solve.count.floor, floor);
    EXPECT_EQ(fork_out.makespan(), floor);

    SpiderSolveScratch spider_scratch;
    SpiderSchedule spider_out;
    SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    EXPECT_EQ(spider_scratch.count.probes, 0u) << "n=" << n;
    EXPECT_EQ(spider_scratch.count.floor, floor);
    EXPECT_EQ(spider_out.makespan(), floor);
  }
}

TEST(SearchRange, ProbesStayWithinTheLogOfTheRange) {
  Rng rng(0xF102);
  ChainCountScratch chain_scratch;
  ForkCountScratch fork_scratch;
  SpiderSolveScratch spider_scratch;
  ChainSchedule chain_out;
  SpiderSchedule fork_out;
  SpiderSchedule spider_out;
  for (int trial = 0; trial < 120; ++trial) {
    const GeneratorParams params = params_of(rng, trial);
    const Workload workload = random_workload(rng, static_cast<std::size_t>(rng.uniform(1, 40)));
    const Chain chain = random_chain(rng, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const Fork fork = random_fork(rng, static_cast<std::size_t>(rng.uniform(1, 10)), params);
    const Spider spider =
        random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 5)), 1, 4, params);

    ForkScheduler::schedule_into(fork, workload, fork_scratch, fork_out);
    const SpiderCountScratch& fork_search = fork_scratch.solve.count;
    EXPECT_LE(fork_search.probes, log2_ceil(fork_search.top - fork_search.floor + 1))
        << fork.describe();

    SpiderScheduler::schedule_into(spider, workload, spider_scratch, spider_out);
    EXPECT_LE(spider_scratch.count.probes,
              log2_ceil(spider_scratch.count.top - spider_scratch.count.floor + 1))
        << spider.describe();

    // The chain search spans [0, T∞(n) + last release]; identical workloads
    // need no search.
    ChainScheduler::schedule_into(chain, workload, chain_scratch, chain_out);
    if (workload.has_release_dates()) {
      const Time top = chain.t_infinity(workload.count()) + workload.last_release();
      EXPECT_LE(chain_scratch.probes, log2_ceil(top + 1)) << chain.describe();
    } else {
      EXPECT_EQ(chain_scratch.probes, 0u) << chain.describe();
    }
  }
}

/// The instance `build_instance` merges for `spider` at `horizon`, checked
/// against the `(deadline, comm, id)` order of its Fig 7 nodes.
std::vector<EddJob> expect_edd_order(const Spider& spider, Time horizon, std::size_t cap) {
  SpiderCountScratch scratch;
  SpiderScheduler::build_instance(spider, horizon, Workload::identical(cap), cap, scratch);
  EXPECT_EQ(triples(scratch.edd),
            reference_order(SpiderScheduler::transform(spider, horizon, cap).nodes, horizon))
      << spider.describe() << " H=" << horizon << " cap=" << cap;
  return scratch.edd;
}

TEST(MergedInstance, SpiderMatchesTheEddOrderOfItsNodes) {
  Rng rng(0xF104);
  for (int trial = 0; trial < 200; ++trial) {
    // Tie-heavy: free first links (c_{l,1} = 0) and zero-latency hops make
    // one leg emit several tasks at once, and identical legs tie across.
    const auto legs = static_cast<std::size_t>(rng.uniform(1, 5));
    std::vector<Chain> chains;
    for (std::size_t l = 0; l < legs; ++l) {
      if (trial % 2 == 0 && l > 0) {
        chains.push_back(chains.front());
        continue;
      }
      std::vector<Processor> procs(static_cast<std::size_t>(rng.uniform(1, 3)));
      for (Processor& proc : procs) proc = Processor{rng.uniform(0, 1), rng.uniform(1, 3)};
      procs.front().comm = 0;
      chains.emplace_back(procs);
    }
    expect_edd_order(Spider(chains), rng.uniform(0, 30),
                     static_cast<std::size_t>(rng.uniform(1, 20)));
  }

  // Forks run as unit-leg spiders, whose Fig 7 nodes are the Fig 6 nodes.
  Rng fork_rng(0xF103);
  for (int trial = 0; trial < 200; ++trial) {
    // Tie-heavy: every slave identical half the time, else times in 1..3.
    const auto p = static_cast<std::size_t>(fork_rng.uniform(1, 9));
    std::vector<Processor> slaves(p);
    const Processor first{fork_rng.uniform(0, 3), fork_rng.uniform(1, 3)};
    for (Processor& slave : slaves) {
      slave = trial % 2 == 0 ? first : Processor{fork_rng.uniform(0, 3), fork_rng.uniform(1, 3)};
    }
    const Fork fork(slaves);
    const Time horizon = fork_rng.uniform(0, 40);
    const auto cap = static_cast<std::size_t>(fork_rng.uniform(1, 30));
    // The `(deadline, comm)` order of the Fig 6 nodes.  The ids differ: a
    // leg's ids ascend in first emission, a slave's in rank.
    std::vector<std::pair<Time, Time>> built;
    for (const EddJob& job : expect_edd_order(Spider::from_fork(fork), horizon, cap)) {
      built.emplace_back(job.deadline, job.proc_time);
    }
    std::vector<VirtualNode> nodes;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      const auto slave_nodes = expand_fork_slave(fork.slave(i), i, horizon, cap);
      nodes.insert(nodes.end(), slave_nodes.begin(), slave_nodes.end());
    }
    std::vector<std::pair<Time, Time>> fig6;
    for (const auto& [deadline, comm, id] : reference_order(nodes, horizon)) {
      fig6.emplace_back(deadline, comm);
    }
    EXPECT_EQ(built, fig6) << fork.describe() << " H=" << horizon << " cap=" << cap;
  }
}

TEST(SearchRange, OverflowingPipelinesAreSkipped) {
  // The first slave's 3-task pipeline, 4e18 + 2·4e18 + 1, overflows `Time`;
  // the second one's takes 4.
  const Fork fork({{4000000000000000000, 1}, {1, 1}});
  EXPECT_EQ(ForkScheduler::makespan(fork, 3), 4);
  const Spider spider{Chain({{4000000000000000000, 1}}), Chain({{1, 1}})};
  EXPECT_EQ(SpiderScheduler::makespan(spider, 3), 4);

  const Fork lone({{4000000000000000000, 1}});
  EXPECT_THROW(ForkScheduler::makespan(lone, 3), std::invalid_argument);
  EXPECT_THROW(SpiderScheduler::makespan(Spider::from_fork(lone), 3), std::invalid_argument);
}

TEST(SearchRange, FarNodesNeverFormAnOverflowingExec) {
  // One node's exec + comm is 1e19: not a single node fits in 9e18.
  const Fork fork({{5000000000000000000, 5000000000000000000}});
  const Time deadline = 9000000000000000000;
  EXPECT_TRUE(expand_fork_slave(fork.slave(0), 0, deadline, 8).empty());
  EXPECT_EQ(ForkScheduler::max_tasks(fork, deadline, 8), 0u);
  EXPECT_TRUE(ForkScheduler::schedule_within(fork, deadline, 8).tasks.empty());
}

}  // namespace
}  // namespace mst
