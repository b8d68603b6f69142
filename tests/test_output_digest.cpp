// Frozen output digest of the exact core.  Every field of every task the
// chain, fork and spider schedulers produce on a seeded grid — makespan and
// decision forms, identical and release-dated workloads, counts, first
// emissions, the spider transformation's nodes, every backward trace step
// and the registry's `optimal` entries with and without a scratch — is
// folded into one FNV-1a hash.  The expected value was captured before the
// schedulers were collapsed onto one kernel per algorithm; any change to
// what the core computes, however small, changes the digest.
//
// If an intended algorithmic change moves the digest, the new value must be
// justified in the change that updates it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/chain_trace.hpp"
#include "mst/core/fork_scheduler.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/generator.hpp"
#include "mst/workload/workload.hpp"

namespace mst {
namespace {

constexpr std::uint64_t kExpectedDigest = 0x8442fcbab3302b79ULL;

class Digest {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= bits & 0xffU;
      hash_ *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  void add(std::size_t value) { add(static_cast<std::int64_t>(value)); }
  void add(bool value) { add(static_cast<std::int64_t>(value ? 1 : 0)); }
  void add(const std::vector<Time>& values) {
    add(values.size());
    for (const Time v : values) add(v);
  }
  void add(const ChainTask& task) {
    add(task.proc);
    add(task.start);
    add(task.emissions);
  }
  void add(const ForkTask& task) {
    add(task.slave);
    add(task.emission);
    add(task.start);
  }
  void add(const SpiderTask& task) {
    add(task.leg);
    add(task.proc);
    add(task.start);
    add(task.emissions);
  }
  template <typename Schedule>
  void add_schedule(const Schedule& schedule) {
    add(schedule.tasks.size());
    for (const auto& task : schedule.tasks) add(task);
  }
  void add(const std::vector<VirtualNode>& nodes) {
    add(nodes.size());
    for (const VirtualNode& node : nodes) {
      add(node.source);
      add(node.rank);
      add(node.comm);
      add(node.exec);
    }
  }
  void add(const api::AnySchedule& schedule) {
    add(schedule.index());
    std::visit(
        [&](const auto& payload) {
          using S = std::decay_t<decltype(payload)>;
          if constexpr (std::is_same_v<S, ChainSchedule> || std::is_same_v<S, ForkSchedule> ||
                        std::is_same_v<S, SpiderSchedule>) {
            add_schedule(payload);
          }
        },
        schedule);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Sorted release dates for `n` tasks arriving in bursts.
Workload released_workload(Rng& rng, std::size_t n) {
  std::vector<Time> release(n);
  Time t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.4)) t += rng.uniform(0, 9);
    release[i] = t;
  }
  return Workload::released(std::move(release));
}

void digest_chain(Digest& d, const Chain& chain, Rng& rng) {
  ChainCountScratch scratch;
  ChainSchedule into;
  for (const std::size_t n : {1u, 2u, 7u, 23u, 64u}) {
    d.add_schedule(ChainScheduler::schedule(chain, n));
    d.add(ChainScheduler::makespan(chain, n));
    ChainScheduler::schedule_into(chain, Workload::identical(n), scratch, into);
    d.add_schedule(into);
    const Workload released = released_workload(rng, n);
    d.add_schedule(ChainScheduler::schedule(chain, released));
    const ChainTrace trace = trace_schedule(chain, n);
    d.add(trace.horizon);
    for (const ChainTraceStep& step : trace.steps) {
      d.add(step.hull_before);
      d.add(step.occupancy_before);
      d.add(step.candidates.size());
      for (const CommVector& candidate : step.candidates) d.add(candidate);
      d.add(step.chosen);
      d.add(step.placed);
    }
    d.add_schedule(trace.schedule);
  }
  for (const Time t_lim : {0, 4, 19, 45, 110}) {
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    d.add_schedule(ChainScheduler::schedule_within(chain, t_lim, cap));
    ChainScheduler::schedule_within_into(chain, t_lim, cap, scratch, into);
    d.add_schedule(into);
    d.add(ChainScheduler::count_within(chain, t_lim, cap, scratch));
    d.add(ChainScheduler::max_tasks(chain, t_lim, cap));
    std::vector<Time> emissions;
    d.add(ChainScheduler::count_within_emissions(chain, t_lim, cap, scratch, emissions));
    d.add(emissions);
    const Workload released = released_workload(rng, cap);
    d.add(ChainScheduler::count_within(chain, t_lim, released, cap, scratch));
    d.add_schedule(ChainScheduler::schedule_within(chain, t_lim, released, cap));
    const ChainTrace trace = trace_backward(chain, t_lim, cap, /*stop_on_negative=*/true);
    d.add(trace.steps.size());
    for (const ChainTraceStep& step : trace.steps) {
      for (const CommVector& candidate : step.candidates) d.add(candidate);
      d.add(step.placed);
    }
    d.add_schedule(trace.schedule);
    d.add_schedule(ChainScheduler::build_backward(chain, t_lim, cap, /*stop_on_negative=*/false));
  }
}

void digest_fork(Digest& d, const Fork& fork, Rng& rng) {
  ForkCountScratch scratch;
  ForkSchedule into;
  for (const std::size_t n : {1u, 3u, 9u, 26u, 70u}) {
    d.add_schedule(ForkScheduler::schedule(fork, n));
    d.add(ForkScheduler::makespan(fork, n));
    ForkScheduler::schedule_into(fork, Workload::identical(n), scratch, into);
    d.add_schedule(into);
    d.add_schedule(ForkScheduler::schedule(fork, released_workload(rng, n)));
  }
  for (const Time t_lim : {0, 5, 18, 44, 120}) {
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    d.add_schedule(ForkScheduler::schedule_within(fork, t_lim, cap));
    ForkScheduler::schedule_within_into(fork, t_lim, cap, scratch, into);
    d.add_schedule(into);
    d.add(ForkScheduler::count_within(fork, t_lim, cap, scratch));
    d.add(ForkScheduler::max_tasks(fork, t_lim, cap));
    const auto [tasks, makespan] = ForkScheduler::makespan_within(fork, t_lim, cap, scratch);
    d.add(tasks);
    d.add(makespan);
    d.add(ForkScheduler::greedy_max_tasks(fork, t_lim, cap));
    d.add_schedule(ForkScheduler::greedy_schedule_within(fork, t_lim, cap));
    const Workload released = released_workload(rng, cap);
    d.add(ForkScheduler::count_within(fork, t_lim, released, cap, scratch));
    d.add_schedule(ForkScheduler::schedule_within(fork, t_lim, released, cap));
  }
}

void digest_spider(Digest& d, const Spider& spider, Rng& rng) {
  SpiderSolveScratch scratch;
  SpiderSchedule into;
  for (const std::size_t n : {1u, 4u, 11u, 24u, 60u}) {
    d.add_schedule(SpiderScheduler::schedule(spider, n));
    d.add(SpiderScheduler::makespan(spider, n));
    SpiderScheduler::schedule_into(spider, Workload::identical(n), scratch, into);
    d.add_schedule(into);
    d.add_schedule(SpiderScheduler::schedule(spider, released_workload(rng, n)));
  }
  for (const Time t_lim : {0, 6, 21, 52, 130}) {
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    const SpiderTransformation tf = SpiderScheduler::transform(spider, t_lim, cap);
    d.add(tf.nodes);
    for (const ChainSchedule& leg : tf.leg_schedules) d.add_schedule(leg);
    d.add_schedule(SpiderScheduler::schedule_within(spider, t_lim, cap));
    SpiderScheduler::schedule_within_into(spider, t_lim, cap, scratch, into);
    d.add_schedule(into);
    d.add(SpiderScheduler::count_within(spider, t_lim, cap, scratch.count));
    d.add(SpiderScheduler::max_tasks(spider, t_lim, cap));
    const Workload released = released_workload(rng, cap);
    d.add(SpiderScheduler::count_within(spider, t_lim, released, cap, scratch.count));
    d.add_schedule(SpiderScheduler::schedule_within(spider, t_lim, released, cap));
  }
}

void digest_moore_hodgson(Digest& d, Rng& rng) {
  std::vector<Time> heap;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<DeadlineJob> jobs;
    const auto count = static_cast<std::size_t>(rng.uniform(0, 14));
    for (std::size_t id = 0; id < count; ++id) {
      jobs.push_back(DeadlineJob{rng.uniform(0, 6), rng.uniform(0, 30), id});
    }
    for (const std::size_t id : moore_hodgson(jobs)) d.add(id);
    d.add(moore_hodgson_count(jobs, heap));
  }
}

void digest_registry(Digest& d, const api::Platform& platform, Rng& rng) {
  const api::Registry& registry = api::registry();
  api::SolveScratch scratch;
  for (const bool pooled : {false, true}) {
    api::SolveOptions options;
    options.materialize = true;
    options.scratch = pooled ? &scratch : nullptr;
    for (const std::size_t n : {1u, 6u, 19u}) {
      for (const Workload& workload : {Workload::identical(n), released_workload(rng, n)}) {
        api::SolveResult result = registry.solve(platform, "optimal", workload, options);
        d.add(result.tasks);
        d.add(result.makespan);
        d.add(result.lower_bound);
        d.add(result.optimal);
        d.add(result.schedule);
        scratch.recycle(std::move(result));
      }
    }
    for (const Time deadline : {-3, 0, 9, 27, 64}) {
      for (const bool materialize : {false, true}) {
        for (const bool with_pool : {false, true}) {
          api::SolveOptions within = options;
          within.materialize = materialize;
          within.cap = static_cast<std::size_t>(rng.uniform(1, 40));
          if (with_pool) {
            within.workload = std::make_shared<const Workload>(released_workload(rng, 12));
          }
          api::DecisionResult result = registry.solve_within(platform, "optimal", deadline, within);
          d.add(result.tasks);
          d.add(result.makespan);
          d.add(result.optimal);
          d.add(result.schedule);
          d.add(registry.max_tasks(platform, "optimal", deadline, within));
          scratch.recycle(std::move(result));
        }
      }
    }
  }
}

TEST(OutputDigest, ExactCoreOutputIsFrozen) {
  Digest d;
  Rng rng(20030422);
  for (int trial = 0; trial < 30; ++trial) {
    Rng inst = rng.split();
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 8)), params);
    const Fork fork = random_fork(inst, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
    digest_chain(d, chain, rng);
    digest_fork(d, fork, rng);
    digest_spider(d, spider, rng);
    if (trial % 3 == 0) {
      digest_registry(d, api::Platform(chain), rng);
      digest_registry(d, api::Platform(fork), rng);
      digest_registry(d, api::Platform(spider), rng);
    }
  }
  digest_moore_hodgson(d, rng);
  EXPECT_EQ(d.value(), kExpectedDigest) << std::hex << "digest 0x" << d.value();
}

}  // namespace
}  // namespace mst
