// Decision-form cross-validation through the registry: `max_tasks` must
// agree with the brute-force oracles on randomized platforms, `solve_within`
// witnesses must be feasible schedules completing by the deadline, the
// count-only fast path must match the materialized counts, and the
// seed-carrying options must make randomized policies reproducible.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/baselines/brute_force.hpp"
#include "mst/common/rng.hpp"
#include "mst/platform/generator.hpp"
#include "support/inverted_decision.hpp"

namespace mst {
namespace {

constexpr std::size_t kCap = 9;  // keeps the exhaustive oracles tractable

api::SolveOptions capped_options() {
  api::SolveOptions options;
  options.cap = kCap;
  return options;
}

/// Deadlines probing every step of the small-k makespan staircase: the
/// optimal makespan of k tasks, one below and one above it.
std::vector<Time> probe_deadlines(const api::Platform& platform, std::size_t k_max) {
  api::SolveOptions fast = capped_options();
  fast.materialize = false;
  std::vector<Time> deadlines{0, 1};
  for (std::size_t k = 1; k <= k_max; ++k) {
    const Time makespan = api::registry().solve(platform, "optimal", k, fast).makespan;
    deadlines.push_back(makespan - 1);
    deadlines.push_back(makespan);
    deadlines.push_back(makespan + 1);
  }
  return deadlines;
}

std::size_t oracle_max_tasks(const api::Platform& platform, Time deadline) {
  if (deadline < 0) return 0;
  if (const auto* chain = std::get_if<Chain>(&platform)) {
    return brute_force_max_tasks(*chain, deadline, kCap);
  }
  if (const auto* fork = std::get_if<Fork>(&platform)) {
    return brute_force_max_tasks(Spider::from_fork(*fork), deadline, kCap);
  }
  return brute_force_max_tasks(std::get<Spider>(platform), deadline, kCap);
}

api::Platform random_platform(api::PlatformKind kind, Rng& rng) {
  const GeneratorParams params{1, 6, PlatformClass::kUniform};
  switch (kind) {
    case api::PlatformKind::kChain: return random_chain(rng, 3, params);
    case api::PlatformKind::kFork: return random_fork(rng, 3, params);
    default: return random_spider(rng, 2, 2, params);
  }
}

// The acceptance check of this PR: on randomized chains, forks and spiders
// the registry's native decision forms match the exhaustive oracles, and
// every nonempty `solve_within` returns a feasible witness within T.
TEST(DecisionForm, MatchesBruteForceOracles) {
  Rng rng(0xD0'07);
  for (api::PlatformKind kind : {api::PlatformKind::kChain, api::PlatformKind::kFork,
                                 api::PlatformKind::kSpider}) {
    for (int trial = 0; trial < 6; ++trial) {
      Rng inst = rng.split();
      const api::Platform platform = random_platform(kind, inst);
      for (Time deadline : probe_deadlines(platform, 4)) {
        SCOPED_TRACE(api::describe(platform) + " T=" + std::to_string(deadline));
        const std::size_t expected = oracle_max_tasks(platform, deadline);
        EXPECT_EQ(api::registry().max_tasks(platform, "optimal", deadline, capped_options()),
                  expected);
        EXPECT_EQ(api::registry().max_tasks(platform, "brute-force", deadline, capped_options()),
                  expected);

        const api::DecisionResult result =
            api::registry().solve_within(platform, "optimal", deadline, capped_options());
        EXPECT_EQ(result.tasks, expected);
        EXPECT_LE(result.makespan, deadline >= 0 ? deadline : 0);
        // Counts that hit the cap may be truncated and are never "optimal".
        EXPECT_EQ(result.optimal, expected < kCap);
        const FeasibilityReport report = api::check_feasibility(result);
        EXPECT_TRUE(report.ok()) << report.summary();
      }
    }
  }
}

// Every registered algorithm of every kind answers the decision form —
// natively or through the makespan-inversion adapter — with a witness that
// passes feasibility checking and respects the deadline.
TEST(DecisionForm, EveryAlgorithmAnswersTheDecisionForm) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  const Fork fork{{2, 3}, {1, 4}, {3, 2}};
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  Tree tree;
  const NodeId trunk = tree.add_node(0, {2, 3});
  tree.add_node(trunk, {1, 2});
  tree.add_node(trunk, {2, 4});
  tree.add_node(0, {3, 2});

  const std::vector<api::Platform> platforms{chain, fork, spider, tree};
  for (const api::Platform& platform : platforms) {
    const Time deadline = 40;
    for (const api::AlgorithmInfo& info : api::registry().list(api::kind_of(platform))) {
      SCOPED_TRACE(to_string(info.kind) + "/" + info.name);
      const api::DecisionResult result =
          api::registry().solve_within(platform, info.name, deadline, capped_options());
      EXPECT_EQ(result.algorithm, info.name);
      EXPECT_EQ(result.kind, info.kind);
      EXPECT_EQ(result.deadline, deadline);
      EXPECT_GT(result.tasks, 0u);
      EXPECT_LE(result.makespan, deadline);
      const FeasibilityReport report = api::check_feasibility(result);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

// materialize=false is the sweep fast path: same counts, no payload.
TEST(DecisionForm, CountOnlyFastPathMatchesMaterializedCounts) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  for (Time deadline : {0, 7, 15, 40, 80}) {
    const api::DecisionResult full =
        api::registry().solve_within(spider, "optimal", deadline, capped_options());
    api::SolveOptions fast = capped_options();
    fast.materialize = false;
    const api::DecisionResult counted =
        api::registry().solve_within(spider, "optimal", deadline, fast);
    EXPECT_EQ(counted.tasks, full.tasks) << "T=" << deadline;
    EXPECT_TRUE(std::holds_alternative<std::monostate>(counted.schedule));
    EXPECT_EQ(counted.tasks, api::registry().max_tasks(spider, "optimal", deadline,
                                                       capped_options()));
  }

  // The makespan form honors the flag too.
  api::SolveOptions fast;
  fast.materialize = false;
  const api::SolveResult bare = api::registry().solve(spider, "optimal", 6, fast);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(bare.schedule));
  EXPECT_EQ(bare.makespan, api::registry().solve(spider, "optimal", 6).makespan);
}

// A count clamped by SolveOptions::cap proves nothing about maximality, so
// it must not be reported as optimal — natively or through the adapter.
TEST(DecisionForm, CapTruncationIsNotReportedOptimal) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  api::SolveOptions tiny;
  tiny.cap = 2;
  for (const char* algorithm : {"optimal", "brute-force", "forward-greedy"}) {
    SCOPED_TRACE(algorithm);
    const api::DecisionResult result =
        api::registry().solve_within(chain, algorithm, 1000, tiny);
    EXPECT_EQ(result.tasks, 2u);
    EXPECT_FALSE(result.optimal);
    EXPECT_TRUE(api::check_feasibility(result).ok());
  }
}

// An impossible window yields an empty, payload-free, still-valid result.
TEST(DecisionForm, EmptyWindowIsValid) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  for (const char* algorithm : {"optimal", "brute-force", "forward-greedy"}) {
    SCOPED_TRACE(algorithm);
    const api::DecisionResult result = api::registry().solve_within(chain, algorithm, 0);
    EXPECT_EQ(result.tasks, 0u);
    EXPECT_EQ(result.makespan, 0);
    EXPECT_TRUE(std::holds_alternative<std::monostate>(result.schedule));
    EXPECT_TRUE(api::check_feasibility(result).ok());
  }
}

// A nonempty decision result whose makespan overruns its own deadline must
// not pass; an empty one is valid even for negative windows.
TEST(DecisionForm, DeadlineOverrunIsFlagged) {
  api::DecisionResult bogus;
  bogus.deadline = 10;
  bogus.tasks = 2;
  bogus.makespan = 11;
  const FeasibilityReport report = api::check_feasibility(bogus);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("deadline exceeded"), std::string::npos);

  api::DecisionResult empty;
  empty.deadline = -3;
  EXPECT_TRUE(api::check_feasibility(empty).ok());
}

// The online-random policy is registered now that solves carry options;
// the seed makes it reproducible.
TEST(DecisionForm, OnlineRandomIsSeededAndReproducible) {
  Tree tree;
  const NodeId trunk = tree.add_node(0, {2, 3});
  tree.add_node(trunk, {1, 2});
  tree.add_node(0, {3, 2});
  tree.add_node(0, {1, 5});

  ASSERT_NE(api::registry().info(api::PlatformKind::kTree, "online-random"), nullptr);
  api::SolveOptions options;
  options.seed = 5;
  const api::SolveResult a = api::registry().solve(tree, "online-random", 12, options);
  const api::SolveResult b = api::registry().solve(tree, "online-random", 12, options);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_TRUE(api::check_feasibility(a).ok());

  // Any seed yields a feasible dispatch; the decision form goes through the
  // adapter and stays seed-deterministic too.
  options.seed = 6;
  const api::SolveResult c = api::registry().solve(tree, "online-random", 12, options);
  EXPECT_TRUE(api::check_feasibility(c).ok());
  EXPECT_EQ(api::registry().max_tasks(tree, "online-random", 30, options),
            api::registry().max_tasks(tree, "online-random", 30, options));
}

// The throughput fix: degenerate nonempty results report +inf (and fail
// feasibility) instead of silently ranking below everything.
TEST(DecisionForm, DegenerateThroughputIsInfinite) {
  api::SolveResult degenerate;
  degenerate.tasks = 3;
  degenerate.makespan = 0;
  EXPECT_TRUE(std::isinf(degenerate.throughput()));
  EXPECT_FALSE(api::check_feasibility(degenerate).ok());

  api::SolveResult empty;
  EXPECT_EQ(empty.throughput(), 0.0);

  api::DecisionResult window;
  window.deadline = 10;
  window.tasks = 5;
  EXPECT_DOUBLE_EQ(window.throughput(), 0.5);
}

TEST(DecisionForm, UnknownAlgorithmThrows) {
  const Chain chain = Chain::from_vectors({2, 3}, {3, 5});
  EXPECT_THROW((void)api::registry().max_tasks(chain, "simulated-annealing", 10),
               std::invalid_argument);
  EXPECT_THROW((void)api::registry().solve_within(chain, "simulated-annealing", 10),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// One-pass decisions: the prefix-stable engine baselines answer the decision
// form with one run stopped before the first task past the deadline.  It
// must give exactly what inverting their makespan form gives.

/// A processor with `c` in [0, 9] (zero-latency links included) and `w` in
/// [1, 9].
Processor random_link(Rng& rng) { return {rng.uniform(0, 9), rng.uniform(1, 9)}; }

Chain random_link_chain(Rng& rng, std::size_t p) {
  std::vector<Processor> procs(p);
  for (Processor& proc : procs) proc = random_link(rng);
  return Chain(std::move(procs));
}

/// A small platform of `kind`: 1 to 6 chain or fork processors, 1 to 3
/// spider legs of 1 to 3 processors, or 1 to 8 tree slaves.
api::Platform random_link_platform(api::PlatformKind kind, Rng& rng) {
  const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
  switch (kind) {
    case api::PlatformKind::kChain: return random_link_chain(rng, p);
    case api::PlatformKind::kFork: {
      std::vector<Processor> slaves(p);
      for (Processor& slave : slaves) slave = random_link(rng);
      return Fork(std::move(slaves));
    }
    case api::PlatformKind::kSpider: {
      std::vector<Chain> legs(static_cast<std::size_t>(rng.uniform(1, 3)));
      for (Chain& leg : legs) {
        leg = random_link_chain(rng, static_cast<std::size_t>(rng.uniform(1, 3)));
      }
      return Spider(std::move(legs));
    }
    case api::PlatformKind::kTree: {
      Tree tree;
      const auto slaves = static_cast<std::size_t>(rng.uniform(1, 8));
      for (std::size_t v = 1; v <= slaves; ++v) {
        tree.add_node(static_cast<NodeId>(rng.uniform(0, static_cast<std::int64_t>(v) - 1)),
                      random_link(rng));
      }
      return tree;
    }
  }
  throw std::logic_error("unknown platform kind");
}

/// The task pools a decision may draw from: none (the identical stream),
/// then identical, sized, release-dated and sized release-dated pools of
/// `n` tasks, each only where the entry takes it.
std::vector<std::shared_ptr<const Workload>> pools_for(api::PlatformKind kind, const char* name,
                                                       Rng& rng, std::size_t n) {
  std::vector<Time> sizes(n);
  std::vector<Time> release(n);
  for (Time& size : sizes) size = rng.uniform(1, 4);
  for (Time& r : release) r = rng.uniform(0, static_cast<std::int64_t>(3 * n));
  std::vector<std::shared_ptr<const Workload>> pools{nullptr};
  for (const Workload& w : {Workload::identical(n), Workload(n, sizes, {}),
                            Workload::released(release), Workload(n, sizes, release)}) {
    if (api::registry().supports(kind, name, w.features())) {
      pools.push_back(std::make_shared<const Workload>(w));
    }
  }
  return pools;
}

/// `solve_within`, materialized and count-only, against the inversion
/// oracle: identical `tasks`, `makespan` and `optimal`, and a feasible
/// payload.
void expect_matches_inversion(const api::Platform& platform, const char* name, Time deadline,
                              const api::SolveOptions& options) {
  SCOPED_TRACE("T=" + std::to_string(deadline) + " cap=" + std::to_string(options.cap));
  const api::DecisionResult expected = oracle::inverted_decision(platform, name, deadline, options);
  for (const bool materialize : {true, false}) {
    api::SolveOptions opts = options;
    opts.materialize = materialize;
    const api::DecisionResult got = api::registry().solve_within(platform, name, deadline, opts);
    EXPECT_EQ(got.tasks, expected.tasks) << "materialize=" << materialize;
    EXPECT_EQ(got.makespan, expected.makespan) << "materialize=" << materialize;
    EXPECT_EQ(got.optimal, expected.optimal) << "materialize=" << materialize;
    if (materialize) {
      const FeasibilityReport report = api::check_feasibility(got);
      EXPECT_TRUE(report.ok()) << report.summary();
    }
  }
}

TEST(DecisionForm, OnePassDecisionsMatchTheInvertedMakespan) {
  struct Entry {
    api::PlatformKind kind;
    const char* name;
  };
  const Entry entries[] = {
      {api::PlatformKind::kChain, "forward-greedy"}, {api::PlatformKind::kChain, "round-robin"},
      {api::PlatformKind::kChain, "periodic"},       {api::PlatformKind::kFork, "forward-greedy"},
      {api::PlatformKind::kFork, "round-robin"},     {api::PlatformKind::kSpider, "forward-greedy"},
      {api::PlatformKind::kSpider, "round-robin"},   {api::PlatformKind::kTree, "forward-greedy"},
  };
  Rng rng(0x0E'9A55);
  for (int trial = 0; trial < 12; ++trial) {
    for (const Entry& entry : entries) {
      Rng inst = rng.split();
      const api::Platform platform = random_link_platform(entry.kind, inst);
      const auto n = static_cast<std::size_t>(inst.uniform(2, 24));
      for (const std::shared_ptr<const Workload>& pool :
           pools_for(entry.kind, entry.name, inst, n)) {
        SCOPED_TRACE(std::string(entry.name) + " on " + api::describe(platform) + ", pool " +
                     (pool == nullptr ? "none" : to_string(pool->features())));
        api::SolveOptions options;
        options.workload = pool;
        const auto k = static_cast<std::size_t>(inst.uniform(1, static_cast<std::int64_t>(n)));
        const Workload tasks = pool != nullptr ? pool->prefix(k) : Workload::identical(k);
        const Time makespan = api::registry().solve(platform, entry.name, tasks).makespan;
        for (const Time deadline : {makespan - 1, makespan, makespan + 1, Time{0}, Time{-5}}) {
          expect_matches_inversion(platform, entry.name, deadline, options);
        }
        // A cap below the answer truncates the count.
        options.cap = k > 1 ? k - 1 : 1;
        expect_matches_inversion(platform, entry.name, makespan, options);
      }
    }
  }
}

}  // namespace
}  // namespace mst
