// Frozen output digest of the exact core.  Every field of every task the
// chain, fork and spider schedulers produce on a seeded grid — makespan and
// decision forms, identical and release-dated workloads, counts, first
// emissions, the spider transformation's nodes, every backward trace step
// and the registry's `optimal` entries with and without a scratch — is
// folded into one FNV-1a hash.  The expected value was captured before the
// schedulers were collapsed onto one kernel per algorithm; any change to
// what the core computes, however small, changes the digest.
//
// A second digest freezes everything above the exact core the same way:
// the non-exact registry entries of every platform kind (baselines,
// streaming re-planner, tree heuristics, online policies) in makespan and
// decision form over identical, sized and released workloads, the
// baselines' direct forms and incremental ASAP states, the online
// simulator's timelines and the tree's spider cover.  Its expected value
// was captured before each of those dispatchers was collapsed onto a
// single implementation.
//
// A third digest freezes what the simulator reports to an attached
// observation: the Chrome trace JSON and the metrics snapshot (event
// counts, completed tasks, per-node and global queue gauges, the streaming
// arrivals, latency and backlog metrics) of streaming runs under every
// stream policy and of fixed-destination dispatches, plus the static
// replay's makespans and conflict lists on mutated schedules.  Trace
// order, queue depths and JSQ decisions all follow the order in which
// same-instant events fire, so this digest pins that order too.
//
// If an intended algorithmic change moves a digest, the new value must be
// justified in the change that updates it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "mst/api/registry.hpp"
#include "mst/api/solve_scratch.hpp"
#include "mst/baselines/asap.hpp"
#include "mst/baselines/forward_greedy.hpp"
#include "mst/baselines/round_robin.hpp"
#include "mst/baselines/single_node.hpp"
#include "mst/common/rng.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/chain_trace.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/heuristics/tree_cover.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/trace.hpp"
#include "mst/platform/generator.hpp"
#include "mst/sim/online.hpp"
#include "mst/sim/static_replay.hpp"
#include "mst/sim/streaming.hpp"
#include "mst/workload/workload.hpp"
#include "support/asap_peek.hpp"
#include "support/moore_hodgson_oracle.hpp"

namespace mst {
namespace {

// Re-frozen when the spider's makespan forms started their tasks early
// (`SpiderScheduler::start_early`): run only where the fork ran its own start
// pass, the two re-frozen digests reproduce 0x0bfe06c7c9241a3d and
// 0x53758cd2cadbf7d9.
constexpr std::uint64_t kExpectedDigest = 0x68c61f36c0af1181ULL;
constexpr std::uint64_t kExpectedAboveCoreDigest = 0xfc8ab36027215859ULL;
constexpr std::uint64_t kExpectedObservedSimDigest = 0x76690c833660ac0dULL;

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
  void add(std::string_view text) {
    add(text.size());
    for (const char c : text) add(static_cast<std::int64_t>(c));
  }
  void add(const std::vector<Time>& values) {
    add(values.size());
    for (const Time v : values) add(v);
  }
  void add(const ChainTask& task) {
    add(task.proc);
    add(task.start);
    add(task.emissions);
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
  /// A fork schedule — the unit-leg spider schedule every fork form returns
  /// — hashed as the fork tasks `(slave, emission, start)` it once held.
  void add_fork_schedule(const SpiderSchedule& schedule) {
    add(schedule.tasks.size());
    for (const SpiderTask& task : schedule.tasks) {
      add(task.leg);
      add(task.emissions.front());
      add(task.start);
    }
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
  void add(const std::vector<NodeId>& nodes) {
    add(nodes.size());
    for (const NodeId v : nodes) add(v);
  }
  void add(const Chain& chain) {
    add(chain.size());
    for (std::size_t k = 0; k < chain.size(); ++k) {
      add(chain.comm(k));
      add(chain.work(k));
    }
  }
  void add(const sim::SimResult& run) {
    add(run.makespan);
    add(run.tasks.size());
    for (const sim::SimTask& task : run.tasks) {
      add(task.dest);
      add(task.release);
      add(task.master_emission);
      add(task.arrival);
      add(task.start);
      add(task.end);
    }
    add(run.tasks_per_node.size());
    for (const std::size_t count : run.tasks_per_node) add(count);
  }
  /// A registry payload under the variant index it had while forks had a
  /// schedule type of their own (monostate 0, chain 1, fork 2, spider 3,
  /// tree 4).  `fork_payload` marks the unit-leg spider schedule of a fork
  /// entry that returned that type (`optimal`, `greedy`): it hashes as
  /// index 2 with the fork tasks.
  void add(const api::AnySchedule& schedule, bool fork_payload) {
    if (const auto* spider = std::get_if<SpiderSchedule>(&schedule); spider && fork_payload) {
      add(std::size_t{2});
      add_fork_schedule(*spider);
      return;
    }
    add(schedule.index() < 2 ? schedule.index() : schedule.index() + 1);
    std::visit(
        [&](const auto& payload) {
          using S = std::decay_t<decltype(payload)>;
          if constexpr (std::is_same_v<S, ChainSchedule> || std::is_same_v<S, SpiderSchedule>) {
            add_schedule(payload);
          } else if constexpr (std::is_same_v<S, api::TreeDispatch>) {
            add(payload.tree.size());
            add(payload.dests);
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

/// Per-task sizes in `[1, 4]`, all available at time 0.
Workload sized_workload(Rng& rng, std::size_t n) {
  std::vector<Time> sizes(n);
  for (Time& size : sizes) size = rng.uniform(1, 4);
  return Workload(n, std::move(sizes), {});
}

/// Sizes in `[1, 4]` and bursty release dates.
Workload sized_released_workload(Rng& rng, std::size_t n) {
  std::vector<Time> sizes(n);
  for (Time& size : sizes) size = rng.uniform(1, 4);
  return Workload(n, std::move(sizes), released_workload(rng, n).releases());
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

/// A fork is solved as its unit-leg spider; its decisions, as the
/// registry's fork entries answer them, start their tasks early.
void digest_fork(Digest& d, const Fork& fork, Rng& rng) {
  const Spider legs = Spider::from_fork(fork);
  SpiderSolveScratch scratch;
  SpiderSchedule into;
  const auto within = [&](Time t_lim, const Workload& workload, std::size_t cap) {
    SpiderScheduler::schedule_within_into(legs, t_lim, workload, cap, scratch, into);
    SpiderScheduler::start_early(scratch, into);
    return into;
  };
  for (const std::size_t n : {1u, 3u, 9u, 26u, 70u}) {
    d.add_fork_schedule(SpiderScheduler::schedule(legs, n));
    d.add(SpiderScheduler::makespan(legs, n));
    SpiderScheduler::schedule_into(legs, Workload::identical(n), scratch, into);
    d.add_fork_schedule(into);
    d.add_fork_schedule(SpiderScheduler::schedule(legs, released_workload(rng, n)));
  }
  for (const Time t_lim : {0, 5, 18, 44, 120}) {
    const auto cap = static_cast<std::size_t>(rng.uniform(1, 30));
    d.add_fork_schedule(within(t_lim, Workload::identical(cap), cap));
    within(t_lim, Workload::identical(cap), cap);
    d.add_fork_schedule(into);
    d.add(SpiderScheduler::count_within(legs, t_lim, cap, scratch.count));
    d.add(SpiderScheduler::max_tasks(legs, t_lim, cap));
    d.add(into.tasks.size());
    d.add(into.makespan());
    const Workload released = released_workload(rng, cap);
    d.add(SpiderScheduler::count_within(legs, t_lim, released, cap, scratch.count));
    d.add_fork_schedule(within(t_lim, released, cap));
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
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<oracle::DeadlineJob> jobs;
    const auto count = static_cast<std::size_t>(rng.uniform(0, 14));
    for (std::size_t id = 0; id < count; ++id) {
      jobs.push_back(oracle::DeadlineJob{rng.uniform(0, 6), rng.uniform(0, 30), id});
    }
    const std::vector<std::size_t> ids = oracle::moore_hodgson(jobs);
    for (const std::size_t id : ids) d.add(id);
    d.add(ids.size());
  }
}

/// Whether the entry returned the fork schedule type before every fork
/// payload became the unit-leg spider schedule (`Digest::add`).
bool returned_fork_schedules(const api::Platform& platform, std::string_view algorithm) {
  return api::kind_of(platform) == api::PlatformKind::kFork &&
         (algorithm == "optimal" || algorithm == "greedy");
}

void digest_registry(Digest& d, const api::Platform& platform, Rng& rng) {
  const api::Registry& registry = api::registry();
  const bool fork = returned_fork_schedules(platform, "optimal");
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
        d.add(result.schedule, fork);
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
          d.add(result.schedule, fork);
          d.add(registry.max_tasks(platform, "optimal", deadline, within));
          scratch.recycle(std::move(result));
        }
      }
    }
  }
}

/// One non-exact registry entry in makespan and decision form, on every
/// workload shape the entry declares support for.
void digest_entry(Digest& d, const api::Platform& platform, const char* algorithm, Rng& rng) {
  const api::Registry& registry = api::registry();
  const api::PlatformKind kind = api::kind_of(platform);
  const bool fork = returned_fork_schedules(platform, algorithm);
  api::SolveOptions options;
  options.seed = static_cast<std::uint64_t>(rng.uniform(1, 1000));
  for (const std::size_t n : {1u, 5u, 13u}) {
    for (const Workload& workload :
         {Workload::identical(n), released_workload(rng, n), sized_workload(rng, n),
          sized_released_workload(rng, n)}) {
      if (!registry.supports(kind, algorithm, workload.features())) continue;
      const api::SolveResult result = registry.solve(platform, algorithm, workload, options);
      d.add(result.tasks);
      d.add(result.makespan);
      d.add(result.lower_bound);
      d.add(result.optimal);
      d.add(result.schedule, fork);
    }
  }
  for (const Time deadline : {-2, 0, 11, 37}) {
    for (const Workload& pool : {Workload(), released_workload(rng, 10), sized_workload(rng, 10)}) {
      if (!registry.supports(kind, algorithm, pool.features())) continue;
      for (const bool materialize : {false, true}) {
        api::SolveOptions within = options;
        within.materialize = materialize;
        within.cap = static_cast<std::size_t>(rng.uniform(1, 24));
        if (!pool.empty()) within.workload = std::make_shared<const Workload>(pool);
        const api::DecisionResult result =
            registry.solve_within(platform, algorithm, deadline, within);
        d.add(result.tasks);
        d.add(result.makespan);
        d.add(result.optimal);
        d.add(result.schedule, fork);
      }
    }
  }
}

/// The baselines on identical workloads (each schedule, then each
/// makespan), fixed-sequence ASAP timing and the incremental ASAP states'
/// peeks.
void digest_baselines(Digest& d, const Chain& chain, const Spider& spider, Rng& rng) {
  for (const std::size_t n : {1u, 4u, 11u}) {
    const Workload w = Workload::identical(n);
    d.add_schedule(forward_greedy(chain, w));
    d.add_schedule(forward_greedy(spider, w));
    d.add(forward_greedy(chain, w).makespan());
    d.add(forward_greedy(spider, w).makespan());
    d.add_schedule(round_robin(chain, w));
    d.add_schedule(round_robin(spider, w));
    d.add(round_robin(chain, w).makespan());
    d.add(round_robin(spider, w).makespan());
    d.add_schedule(single_node(chain, w));
    d.add_schedule(single_node(spider, w));
    d.add(single_node(chain, w).makespan());
    d.add(single_node(spider, w).makespan());

    std::vector<std::size_t> chain_dests(n);
    std::vector<SpiderDest> spider_dests(n);
    for (std::size_t i = 0; i < n; ++i) {
      chain_dests[i] = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(chain.size()) - 1));
      const auto leg = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(spider.num_legs()) - 1));
      spider_dests[i] = SpiderDest{
          leg, static_cast<std::size_t>(
                   rng.uniform(0, static_cast<std::int64_t>(spider.leg(leg).size()) - 1))};
    }
    const Workload workload = sized_released_workload(rng, n);
    d.add_schedule(asap_chain_schedule(chain, chain_dests));
    d.add_schedule(asap_chain_schedule(chain, chain_dests, workload));
    d.add_schedule(asap_spider_schedule(spider, spider_dests));
    d.add_schedule(asap_spider_schedule(spider, spider_dests, workload));

    // The engine numbers chain processor `q` as node `q + 1` and spider
    // nodes by leg, then by processor.
    TreeAsapState chain_state(chain);
    TreeAsapState spider_state(spider);
    for (std::size_t i = 0; i < n; ++i) {
      const Time size = workload.size_of(i);
      const Time release = workload.release_of(i);
      for (std::size_t q = 0; q < chain.size(); ++q) {
        d.add(oracle::peek_completion(chain_state, q + 1, size, release));
      }
      for (NodeId v = 1; v < spider_state.size(); ++v) {
        d.add(oracle::peek_completion(spider_state, v, size, release));
      }
      ChainTask chain_task;
      chain_task.proc = chain_dests[i];
      chain_task.emissions.resize(chain_dests[i] + 1);
      chain_task.start = chain_state.commit(chain_dests[i] + 1, size, release) -
                         size * chain.work(chain_dests[i]);
      chain_state.hop_emissions(chain_dests[i] + 1, size, chain_task.emissions.data());
      d.add(chain_task);
      const SpiderDest dest = spider_dests[i];
      SpiderTask spider_task;
      spider_task.leg = dest.leg;
      spider_task.proc = dest.proc;
      spider_task.emissions.resize(dest.proc + 1);
      spider_task.start = spider_state.commit(spider_node(spider, dest), size, release) -
                          size * spider.leg(dest.leg).work(dest.proc);
      spider_state.hop_emissions(spider_node(spider, dest), size, spider_task.emissions.data());
      d.add(spider_task);
    }
  }
}

/// The online simulator for every policy, and the tree's spider cover.
void digest_tree(Digest& d, const Tree& tree, Rng& rng) {
  const auto seed = static_cast<std::uint64_t>(rng.uniform(0, 1000));
  for (const sim::OnlinePolicy policy : sim::all_online_policies()) {
    for (const std::size_t n : {1u, 6u, 17u}) {
      d.add(sim::simulate_online(tree, n, policy, seed));
      for (const Workload& workload :
           {released_workload(rng, n), sized_workload(rng, n), sized_released_workload(rng, n)}) {
        d.add(sim::simulate_online(tree, workload, policy, seed));
      }
    }
  }
  const SpiderCover cover = cover_tree_with_spider(tree);
  d.add(cover.spider.num_legs());
  for (std::size_t l = 0; l < cover.spider.num_legs(); ++l) {
    d.add(cover.spider.leg(l));
    d.add(cover.node_of[l]);
  }
}

/// Runs `run` with a fresh metrics registry and trace sink attached and
/// folds in what they recorded.
template <typename Run>
void digest_observed(Digest& d, const Run& run) {
  obs::MetricsRegistry metrics;
  obs::TraceSink trace(std::size_t{1} << 12);
  run(obs::Observation{&metrics, &trace});
  d.add(trace.to_chrome_json());
  d.add(trace.dropped());
  d.add(metrics.to_json());
}

/// Every stream policy on `platform`'s substrate, then fixed-destination
/// dispatches, each observed.  `replan` takes uniform sizes only and no
/// tree, so it runs on the release-dated workload of chains and spiders.
void digest_observed_platform(Digest& d, const api::Platform& platform, Rng& rng) {
  const Tree substrate = sim::stream_substrate(platform);
  const auto seed = static_cast<std::uint64_t>(rng.uniform(0, 1000));
  const bool tree = api::kind_of(platform) == api::PlatformKind::kTree;
  for (const std::size_t n : {1u, 7u, 19u}) {
    const Workload released = released_workload(rng, n);
    const Workload sized = sized_released_workload(rng, n);
    for (const char* algorithm :
         {"online-round-robin", "online-random", "online-jsq", "online-ect", "replan"}) {
      const bool replan = std::string_view(algorithm) == "replan";
      if (replan && tree) continue;
      for (const Workload* workload : {&released, &sized}) {
        if (replan && workload == &sized) continue;
        digest_observed(d, [&](const obs::Observation& observation) {
          const auto policy = sim::make_named_policy(platform, substrate, algorithm, seed);
          const sim::StreamResult result =
              sim::simulate_stream(substrate, *workload, *policy, observation);
          d.add(result.sim);
          d.add(result.metrics.latency);
          d.add(result.metrics.peak_backlog);
        });
      }
    }
    std::vector<NodeId> dests(n);
    for (NodeId& dest : dests) {
      dest = static_cast<NodeId>(
          rng.uniform(1, static_cast<std::int64_t>(substrate.size()) - 1));
    }
    for (const Workload* workload : {&released, &sized}) {
      digest_observed(d, [&](const obs::Observation& observation) {
        d.add(sim::simulate_dispatch(substrate, dests, *workload, observation));
      });
    }
  }
}

/// Shifts `k` random times of `schedule` (starts and emissions) by up to 4
/// either way, so the replay meets busy resources, early starts, broken
/// store-and-forward and negative times.
template <typename Schedule>
Schedule mutated(Schedule schedule, std::size_t k, Rng& rng) {
  for (std::size_t m = 0; m < k && !schedule.tasks.empty(); ++m) {
    auto& task = schedule.tasks[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(schedule.tasks.size()) - 1))];
    const auto field = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(task.emissions.size())));
    Time& time = field == task.emissions.size() ? task.start : task.emissions[field];
    time += rng.uniform(-4, 4);
  }
  return schedule;
}

void add_replay(Digest& d, const sim::ReplayResult& replay) {
  d.add(replay.ok);
  d.add(replay.makespan);
  d.add(replay.conflicts.size());
  for (const std::string& conflict : replay.conflicts) d.add(std::string_view(conflict));
}

TEST(OutputDigest, BaselineAndOnlineOutputIsFrozen) {
  Digest d;
  Rng rng(20030423);
  for (int trial = 0; trial < 40; ++trial) {
    Rng inst = rng.split();
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 6)), params);
    const Fork fork = random_fork(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 9)), params);
    digest_baselines(d, chain, spider, rng);
    digest_tree(d, tree, rng);
    for (const char* algorithm : {"forward-greedy", "round-robin", "single-node", "replan"}) {
      digest_entry(d, api::Platform(chain), algorithm, rng);
      digest_entry(d, api::Platform(fork), algorithm, rng);
      digest_entry(d, api::Platform(spider), algorithm, rng);
    }
    digest_entry(d, api::Platform(chain), "periodic", rng);
    digest_entry(d, api::Platform(fork), "greedy", rng);
    for (const char* algorithm :
         {"spider-cover", "forward-greedy", "local-search", "online-ect", "online-jsq",
          "online-round-robin", "online-random"}) {
      digest_entry(d, api::Platform(tree), algorithm, rng);
    }
  }
  EXPECT_EQ(d.value(), kExpectedAboveCoreDigest) << std::hex << "digest 0x" << d.value();
}

TEST(OutputDigest, ObservedSimulatorOutputIsFrozen) {
  Digest d;
  Rng rng(20030424);
  for (int trial = 0; trial < 24; ++trial) {
    Rng inst = rng.split();
    const GeneratorParams params{1, 9, all_platform_classes()[trial % 5]};
    const Chain chain = random_chain(inst, static_cast<std::size_t>(rng.uniform(1, 5)), params);
    const Spider spider =
        random_spider(inst, static_cast<std::size_t>(rng.uniform(1, 4)), 3, params);
    const Tree tree = random_tree(inst, static_cast<std::size_t>(rng.uniform(1, 9)), params);
    digest_observed_platform(d, api::Platform(chain), rng);
    digest_observed_platform(d, api::Platform(spider), rng);
    digest_observed_platform(d, api::Platform(tree), rng);
    for (const std::size_t n : {1u, 6u, 15u}) {
      for (const std::size_t k : {0u, 1u, 3u, 8u}) {
        add_replay(d, sim::replay(mutated(ChainScheduler::schedule(chain, n), k, rng)));
        add_replay(d, sim::replay(mutated(SpiderScheduler::schedule(spider, n), k, rng)));
        add_replay(d, sim::replay(
                          mutated(ChainScheduler::schedule(chain, released_workload(rng, n)), k,
                                  rng)));
        add_replay(d, sim::replay(mutated(
                          SpiderScheduler::schedule(spider, released_workload(rng, n)), k, rng)));
      }
    }
  }
  EXPECT_EQ(d.value(), kExpectedObservedSimDigest) << std::hex << "digest 0x" << d.value();
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
