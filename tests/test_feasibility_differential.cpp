// Differential test of the one-pass Definition 1 checker against the
// checker it replaced (tests/support/reference_feasibility.hpp): on
// library schedules of chains, forks and spiders, for identical, sized and
// release-dated workloads, both as solved and after seeded mutations, the
// two must report the same violations in the same order, message for
// message.  Every time stays non-negative: the reference predates the
// negative-time check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/common/rng.hpp"
#include "mst/platform/generator.hpp"
#include "mst/schedule/feasibility.hpp"
#include "support/reference_feasibility.hpp"

namespace mst {
namespace {

enum class Shape { kChain, kFork, kSpider };
enum class Load { kIdentical, kSized, kReleased, kSizedReleased };

api::Platform random_platform(Rng& rng, Shape shape) {
  const GeneratorParams params{1, 6, PlatformClass::kUniform};
  const auto p = static_cast<std::size_t>(rng.uniform(1, 6));
  switch (shape) {
    case Shape::kChain:
      return random_chain(rng, p, params);
    case Shape::kFork:
      return random_fork(rng, p, params);
    case Shape::kSpider:
      return random_spider(rng, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
  }
  return {};
}

Workload random_workload(Rng& rng, Load load, std::size_t n) {
  std::vector<Time> sizes;
  std::vector<Time> release;
  if (load == Load::kSized || load == Load::kSizedReleased) {
    for (std::size_t i = 0; i < n; ++i) sizes.push_back(rng.uniform(1, 4));
  }
  if (load == Load::kReleased || load == Load::kSizedReleased) {
    const Time horizon = 3 * static_cast<Time>(n);
    for (std::size_t i = 0; i < n; ++i) release.push_back(rng.uniform(0, horizon));
  }
  return Workload(n, std::move(sizes), std::move(release));
}

/// Library algorithms able to solve `load` on `shape` (no exhaustive ones).
std::vector<std::string> algorithms(Shape shape, Load load) {
  std::vector<std::string> out = {"forward-greedy", "round-robin", "single-node"};
  if (load == Load::kIdentical || load == Load::kReleased) out.push_back("optimal");
  if (load == Load::kIdentical && shape == Shape::kFork) out.push_back("greedy");
  if (load == Load::kIdentical && shape == Shape::kChain) out.push_back("periodic");
  return out;
}

/// Moves `t` by `±1..c` without going below 0.
Time moved(Rng& rng, Time t, Time c) {
  const Time d = rng.uniform(1, std::max<Time>(1, c));
  return rng.uniform(0, 1) == 0 && t >= d ? t - d : t + d;
}

/// One seeded mutation of a chain or spider task list: an emission or
/// start moved by `±1..c`, a time copied from another task (an exact tie),
/// a wrong processor, leg or vector length.  `comm(task, k)` is the
/// latency of the task's `k`-th link, `legs` 1 for chains.
template <class Task, class Comm>
void mutate(Rng& rng, std::vector<Task>& tasks, std::size_t legs, std::size_t max_len,
            const Comm& comm) {
  if (tasks.empty()) return;
  Task& t = tasks[static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(tasks.size()) - 1))];
  const Task& other =
      tasks[static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(tasks.size()) - 1))];
  const auto hop = [&rng](const CommVector& v) {
    return static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(v.size()) - 1));
  };
  switch (rng.uniform(0, 6)) {
    case 0:
    case 1:
      if (!t.emissions.empty()) {
        const std::size_t k = hop(t.emissions);
        t.emissions[k] = moved(rng, t.emissions[k], comm(t, k));
      }
      break;
    case 2:
      t.start = moved(rng, t.start, t.emissions.empty() ? 1 : comm(t, t.emissions.size() - 1));
      break;
    case 3:
      if (!other.emissions.empty() && !t.emissions.empty()) {
        const std::size_t k = std::min(hop(t.emissions), other.emissions.size() - 1);
        t.emissions[k] = other.emissions[k];
      } else {
        t.start = other.start;
      }
      break;
    case 4:
      t.proc = static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(max_len)));
      break;
    case 5:
      if constexpr (std::is_same_v<Task, SpiderTask>) {
        t.leg = static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(legs)));
        break;
      }
      [[fallthrough]];
    default:
      if (rng.uniform(0, 1) == 0 && !t.emissions.empty()) {
        t.emissions.pop_back();
      } else {
        t.emissions.push_back(t.emissions.empty() ? 0 : t.emissions.back() + 1);
      }
      break;
  }
}

std::size_t max_leg(const Spider& spider) {
  std::size_t len = 0;
  for (const Chain& leg : spider.legs()) len = std::max(len, leg.size());
  return len;
}

TEST(FeasibilityDifferential, OnePassCheckerMatchesTheReference) {
  const api::Registry& registry = api::registry();
  Rng rng(20261017);
  api::SolveOptions options;
  options.materialize = true;
  constexpr int kCases = 2400;
  int infeasible = 0;
  int per_shape[3] = {0, 0, 0};
  int per_load[4] = {0, 0, 0, 0};
  for (int c = 0; c < kCases; ++c) {
    const auto shape = static_cast<Shape>(rng.uniform(0, 2));
    const auto load = static_cast<Load>(rng.uniform(0, 3));
    const api::Platform platform = random_platform(rng, shape);
    const auto n = static_cast<std::size_t>(rng.uniform(1, 36));
    const Workload drawn = random_workload(rng, load, n);
    const std::vector<std::string> names = algorithms(shape, load);
    const std::string& algorithm =
        names[static_cast<std::size_t>(rng.uniform(0, static_cast<Time>(names.size()) - 1))];
    api::SolveResult result = registry.solve(platform, algorithm, drawn, options);
    // A few cases check against a workload of the wrong count.
    const Workload workload =
        rng.uniform(0, 49) == 0 ? Workload::identical(n + 1) : result.workload;
    const int mutations = rng.uniform(0, 1) == 0 ? 0 : static_cast<int>(rng.uniform(1, 3));

    std::vector<std::string> got;
    std::vector<std::string> want;
    if (auto* chain = std::get_if<ChainSchedule>(&result.schedule)) {
      const auto comm = [&](const ChainTask&, std::size_t k) {
        return chain->chain.comm(std::min(k, chain->chain.size() - 1));
      };
      for (int m = 0; m < mutations; ++m) {
        mutate(rng, chain->tasks, 1, chain->chain.size(), comm);
      }
      got = check_feasibility(*chain, workload).violations();
      want = oracle::check_feasibility(*chain, workload).violations();
      if (workload == Workload::identical(n)) {
        EXPECT_EQ(check_feasibility(*chain).violations(), want) << "case " << c;
      }
    } else {
      auto& spider = std::get<SpiderSchedule>(result.schedule);
      const auto comm = [&](const SpiderTask& t, std::size_t k) {
        const Chain& leg = spider.spider.leg(std::min(t.leg, spider.spider.num_legs() - 1));
        return leg.comm(std::min(k, leg.size() - 1));
      };
      for (int m = 0; m < mutations; ++m) {
        mutate(rng, spider.tasks, spider.spider.num_legs(), max_leg(spider.spider), comm);
      }
      got = check_feasibility(spider, workload).violations();
      want = oracle::check_feasibility(spider, workload).violations();
      if (workload == Workload::identical(n)) {
        EXPECT_EQ(check_feasibility(spider).violations(), want) << "case " << c;
      }
    }
    ASSERT_EQ(got, want) << "case " << c << ": " << algorithm << ", " << mutations
                         << " mutation(s)";
    infeasible += want.empty() ? 0 : 1;
    ++per_shape[static_cast<int>(shape)];
    ++per_load[static_cast<int>(load)];
  }
  RecordProperty("infeasible", infeasible);
  EXPECT_GE(infeasible * 10, kCases * 3) << infeasible << " of " << kCases << " infeasible";
  EXPECT_LE(infeasible * 10, kCases * 7) << infeasible << " of " << kCases << " infeasible";
  for (const int count : per_shape) EXPECT_GE(count, kCases / 5);
  for (const int count : per_load) EXPECT_GE(count, kCases / 6);
}

}  // namespace
}  // namespace mst
