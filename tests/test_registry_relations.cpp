// Relations every registry dispatch must satisfy on random chains, forks
// and spiders (p <= 8, n <= 64), checked through `Registry::solve` and
// `Registry::solve_within` rather than the core schedulers:
//
//  * no entry of a kind beats that kind's `optimal` makespan — identical
//    workloads on every kind, release-dated workloads on chains only (the
//    fork/spider release-date selection is not proven exact);
//  * `optimal`'s decision form at `D = M(n)` places at least `n` tasks, and
//    at `M(n) - 1` fewer;
//  * a name resolves to the entry of the platform's own kind, whatever other
//    kinds register under it, and a name the kind lacks is refused;
//  * the prefix-stable entries (trees included) dispatch the first `k` tasks
//    of an `n`-task run exactly as they dispatch a `k`-task run.
//
// Exponential entries (the brute-force oracles) stay out of the loops.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/rng.hpp"
#include "mst/platform/generator.hpp"
#include "mst/platform/tree.hpp"

namespace mst {
namespace {

constexpr api::PlatformKind kExactKinds[] = {api::PlatformKind::kChain, api::PlatformKind::kFork,
                                             api::PlatformKind::kSpider};

/// A random platform of an exactly-solved kind with 1 to 8 processors.
api::Platform random_platform(Rng& rng, api::PlatformKind kind) {
  const GeneratorParams params{1, 9, PlatformClass::kUniform};
  const auto p = static_cast<std::size_t>(rng.uniform(1, 8));
  switch (kind) {
    case api::PlatformKind::kChain: return random_chain(rng, p, params);
    case api::PlatformKind::kFork: return random_fork(rng, p, params);
    case api::PlatformKind::kSpider: {
      // At most 8 processors over all legs.
      const auto legs = static_cast<std::size_t>(rng.uniform(1, 4));
      return random_spider(rng, legs, 8 / legs, params);
    }
    case api::PlatformKind::kTree: break;
  }
  throw std::logic_error("not an exactly-solved kind");
}

/// `n` tasks released at random, sorted dates in `[0, 4n]`, some repeated.
Workload random_releases(Rng& rng, std::size_t n) {
  std::vector<Time> release(n);
  for (Time& r : release) r = rng.uniform(0, static_cast<std::int64_t>(4 * n));
  return Workload::released(std::move(release));
}

/// Every non-exponential entry of the platform's kind that accepts `w`
/// makes at least `optimal`'s makespan.
void expect_optimal_is_least(const api::Platform& platform, const Workload& w) {
  const api::PlatformKind kind = api::kind_of(platform);
  const Time optimum = api::registry().solve(platform, "optimal", w).makespan;
  for (const api::AlgorithmInfo& info : api::registry().list(kind)) {
    if (info.exponential || !api::registry().supports(kind, info.name, w.features())) continue;
    SCOPED_TRACE(info.name);
    EXPECT_GE(api::registry().solve(platform, info.name, w).makespan, optimum);
  }
}

/// `optimal`'s decision form places `n` tasks at `M(n)` and fewer one
/// time unit earlier, drawing from `pool` when set.
void expect_decision_inverts_makespan(const api::Platform& platform, const Workload& w,
                                      bool pool) {
  const Time makespan = api::registry().solve(platform, "optimal", w).makespan;
  api::SolveOptions options;
  options.materialize = false;
  if (pool) options.workload = std::make_shared<const Workload>(w);
  const api::DecisionResult at =
      api::registry().solve_within(platform, "optimal", makespan, options);
  EXPECT_GE(at.tasks, w.count()) << "deadline " << makespan;
  EXPECT_TRUE(at.optimal);
  const api::DecisionResult before =
      api::registry().solve_within(platform, "optimal", makespan - 1, options);
  EXPECT_LT(before.tasks, w.count()) << "deadline " << makespan - 1;
}

TEST(RegistryRelations, OptimalIsLeastAndItsDecisionFormInvertsIt) {
  Rng rng(0x35);
  for (int trial = 0; trial < 100; ++trial) {
    for (const api::PlatformKind kind : kExactKinds) {
      Rng inst = rng.split();
      const api::Platform platform = random_platform(inst, kind);
      const auto n = static_cast<std::size_t>(inst.uniform(1, 64));
      SCOPED_TRACE(api::describe(platform) + ", n = " + std::to_string(n));
      const Workload identical = Workload::identical(n);
      expect_optimal_is_least(platform, identical);
      expect_decision_inverts_makespan(platform, identical, /*pool=*/false);
      if (kind == api::PlatformKind::kChain) {
        const Workload released = random_releases(inst, n);
        SCOPED_TRACE("release-dated");
        expect_optimal_is_least(platform, released);
        expect_decision_inverts_makespan(platform, released, /*pool=*/true);
      }
    }
  }
}

/// A small instance of every kind, trees included.
api::Platform small_platform(api::PlatformKind kind) {
  Rng rng(0x51 + static_cast<std::uint64_t>(kind));
  const GeneratorParams params{1, 9, PlatformClass::kUniform};
  switch (kind) {
    case api::PlatformKind::kChain: return random_chain(rng, 3, params);
    case api::PlatformKind::kFork: return random_fork(rng, 3, params);
    case api::PlatformKind::kSpider: return random_spider(rng, 2, 2, params);
    case api::PlatformKind::kTree: return random_tree(rng, 4, params);
  }
  throw std::logic_error("unreachable");
}

/// Runs `call`, which must throw `std::invalid_argument` starting with
/// `message`.
template <typename Call>
void expect_refused(const Call& call, const std::string& message) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected \"" << message << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(message, 0), 0u) << e.what();
  }
}

TEST(RegistryRelations, NamesResolveToThePlatformsOwnKind) {
  std::vector<std::string> names{"no-such-algorithm"};
  for (const api::AlgorithmInfo& info : api::registry().list()) names.push_back(info.name);
  for (const api::PlatformKind kind : api::all_platform_kinds()) {
    const api::Platform platform = small_platform(kind);
    for (const std::string& name : names) {
      SCOPED_TRACE(api::to_string(kind) + "/" + name);
      if (api::registry().info(kind, name) == nullptr) {
        const std::string refusal =
            "no algorithm '" + name + "' for " + api::to_string(kind) + " platforms";
        expect_refused([&] { (void)api::registry().solve(platform, name, 3); }, refusal);
        expect_refused([&] { (void)api::registry().solve_within(platform, name, 0); }, refusal);
        continue;
      }
      // Three tasks, and a window they just fit: small enough for the
      // exponential entries too.
      const api::SolveResult solved = api::registry().solve(platform, name, 3);
      EXPECT_EQ(solved.kind, kind);
      EXPECT_EQ(solved.algorithm, name);
      EXPECT_EQ(solved.tasks, 3u);
      const api::DecisionResult decided =
          api::registry().solve_within(platform, name, solved.makespan);
      EXPECT_EQ(decided.kind, kind);
      EXPECT_EQ(decided.algorithm, name);
      EXPECT_GE(decided.tasks, 3u);
    }
  }
}

/// Every task's destination in workload order: a chain processor, a spider
/// (or fork) processor numbered as `spider_node` numbers it, or a tree node.
std::vector<std::size_t> dispatch_sequence(const api::SolveResult& result) {
  std::vector<std::size_t> out;
  if (const auto* chain = std::get_if<ChainSchedule>(&result.schedule)) {
    for (const ChainTask& task : chain->tasks) out.push_back(task.proc);
  } else if (const auto* spider = std::get_if<SpiderSchedule>(&result.schedule)) {
    for (const SpiderTask& task : spider->tasks) {
      out.push_back(spider_node(spider->spider, {task.leg, task.proc}));
    }
  } else {
    out = std::get<api::TreeDispatch>(result.schedule).dests;
  }
  return out;
}

TEST(RegistryRelations, PrefixStableEntriesDispatchTheirPrefix) {
  // The entries whose `k`-task run is the first `k` tasks of any longer
  // run: the list the one-pass decision form may rely on.  Release-dated
  // workloads where the entry takes them; the `k`-task workload is the
  // canonical prefix of the `n`-task one.
  struct Entry {
    api::PlatformKind kind;
    const char* name;
  };
  const Entry entries[] = {
      {api::PlatformKind::kChain, "forward-greedy"},  {api::PlatformKind::kChain, "round-robin"},
      {api::PlatformKind::kChain, "periodic"},        {api::PlatformKind::kFork, "forward-greedy"},
      {api::PlatformKind::kFork, "round-robin"},      {api::PlatformKind::kSpider, "forward-greedy"},
      {api::PlatformKind::kSpider, "round-robin"},    {api::PlatformKind::kTree, "forward-greedy"},
      {api::PlatformKind::kTree, "online-ect"},       {api::PlatformKind::kTree, "online-jsq"},
      {api::PlatformKind::kTree, "online-round-robin"}, {api::PlatformKind::kTree, "online-random"},
  };
  Rng rng(0x18);
  for (int trial = 0; trial < 40; ++trial) {
    for (const Entry& entry : entries) {
      Rng inst = rng.split();
      const api::Platform platform =
          entry.kind == api::PlatformKind::kTree
              ? api::Platform(random_tree(inst, static_cast<std::size_t>(inst.uniform(1, 12)),
                                          {1, 9, PlatformClass::kUniform}, 0.5))
              : random_platform(inst, entry.kind);
      const auto n = static_cast<std::size_t>(inst.uniform(2, 64));
      const auto k = static_cast<std::size_t>(inst.uniform(1, static_cast<std::int64_t>(n) - 1));
      std::vector<Workload> workloads{Workload::identical(n)};
      const Workload released = random_releases(inst, n);
      if (api::registry().supports(entry.kind, entry.name, released.features())) {
        workloads.push_back(released);
      }
      for (const Workload& w : workloads) {
        SCOPED_TRACE(std::string(entry.name) + " on " + api::describe(platform) +
                     ", n = " + std::to_string(n) + ", k = " + std::to_string(k) +
                     (w.has_release_dates() ? ", release-dated" : ""));
        std::vector<std::size_t> full =
            dispatch_sequence(api::registry().solve(platform, entry.name, w));
        ASSERT_EQ(full.size(), n);
        full.resize(k);
        EXPECT_EQ(dispatch_sequence(api::registry().solve(platform, entry.name, w.prefix(k))),
                  full);
      }
    }
  }
}

}  // namespace
}  // namespace mst
