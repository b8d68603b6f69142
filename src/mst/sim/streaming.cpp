#include "mst/sim/streaming.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <variant>

#include "mst/baselines/tree_asap.hpp"
#include "mst/common/assert.hpp"
#include "mst/common/rng.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/trace.hpp"
#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"

namespace mst::sim {

namespace {

std::size_t require_slaves(const Tree& tree) {
  MST_REQUIRE(tree.num_slaves() >= 1, "tree has no slaves");
  return tree.num_slaves();
}

// ---------------------------------------------------------------------------
// The four online dispatchers — their one implementation; `simulate_online`
// runs them through the driver below.  None of them ever holds a
// `Workload`: sizes and release dates reach them one `observe` at a time.

class RoundRobinStream final : public StreamPolicy {
 public:
  explicit RoundRobinStream(const Tree& tree) : num_slaves_(require_slaves(tree)) {}
  void observe(const StreamArrival&) override {}
  NodeId choose(std::size_t task, const DispatchContext&) override {
    return 1 + task % num_slaves_;
  }

 private:
  std::size_t num_slaves_;
};

class RandomStream final : public StreamPolicy {
 public:
  RandomStream(const Tree& tree, std::uint64_t seed)
      : num_slaves_(require_slaves(tree)), rng_(seed) {}
  void observe(const StreamArrival&) override {}
  NodeId choose(std::size_t, const DispatchContext&) override {
    // One SplitMix64 draw per dispatch, in dispatch order.
    return 1 + static_cast<NodeId>(
                   rng_.uniform(0, static_cast<std::int64_t>(num_slaves_) - 1));
  }

 private:
  std::size_t num_slaves_;
  Rng rng_;
};

/// Join the slave minimizing `(outstanding + 1) * work + path_latency`.
class JsqStream final : public StreamPolicy {
 public:
  explicit JsqStream(const Tree& tree) : tree_(&tree), path_latency_(tree.size(), 0) {
    require_slaves(tree);
    // One ascending pass: a parent is numbered before its children.
    for (NodeId v = 1; v < tree.size(); ++v) {
      path_latency_[v] = path_latency_[tree.parent(v)] + tree.proc(v).comm;
    }
  }
  void observe(const StreamArrival&) override {}
  NodeId choose(std::size_t, const DispatchContext& ctx) override {
    // Ascending node id with strict improvement: score ties break toward
    // the smallest slave index (the documented contract).
    NodeId best = 1;
    Time best_score = kTimeInfinity;
    for (NodeId v = 1; v < tree_->size(); ++v) {
      const Time score =
          static_cast<Time>(ctx.outstanding[v] + 1) * tree_->proc(v).work + path_latency_[v];
      if (score < best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  }

 private:
  const Tree* tree_;
  std::vector<Time> path_latency_;  ///< sum of link latencies root -> node
};

/// Earliest estimated completion, read off the driver's own engine (FIFO
/// out-ports and a single source make its predictions match the simulator
/// exactly, see tree_asap.hpp; the dispatched task's size and release keep
/// that true for workloads).
class EctStream final : public StreamPolicy {
 public:
  explicit EctStream(const Tree& tree) : ready_(tree.size()) { require_slaves(tree); }
  void observe(const StreamArrival&) override {}
  NodeId choose(std::size_t, const DispatchContext& ctx) override {
    const NodeId best =
        ctx.engine.earliest_completion(ctx.arrival.size, ctx.arrival.release, ready_);
    ect_nodes_ += ready_.size() - 1;
    return best;
  }
  void count_work(obs::MetricsRegistry& metrics) const override {
    metrics.counter("core.asap.ect_nodes").add(static_cast<Time>(ect_nodes_));
  }

 private:
  std::vector<Time> ready_;  ///< the engine's arrival time per node
  std::size_t ect_nodes_ = 0;
};

// ---------------------------------------------------------------------------
// Horizon re-planning: on every arrival batch, plan the known undispatched
// backlog of `b` identical tasks exactly and follow the plan's
// master-emission order.  The plan models an idle platform — in-flight work
// shifts the real timeline later through the substrate's FIFO queues — so
// this is the exact algorithm as a reactive heuristic, not an optimality
// claim; with all tasks released at 0 the single plan is the offline
// optimum itself.
//
// Because the plan depends on `(platform, b)` alone, a replan mostly reads
// what it already holds instead of solving:
//  * chain: the optimal `b`-task plan is the first `b` ranks of the chain's
//    emission profile (`LegProfile`), in master-emission order `b−1 … 0`
//    (the construction builds tasks last to first, and by the shift lemma
//    its first `b` steps at `T∞(N)` are the `b`-task construction at
//    `T∞(b)`, shifted, for any `N >= b`).  The policy keeps one profile for
//    the whole run and extends it when a backlog outgrows it, so it holds
//    as many ranks as the largest backlog, each built once, and never
//    solves or materializes a plan;
//  * fork and spider: the last solved plan is kept whole, and a backlog of
//    its size restarts it; any other size re-solves (the selection is not
//    nested in `b`).  A re-solve is the destinations-only makespan form
//    (`SpiderScheduler::destinations_into`): no schedule is materialized.
//    Its leg ranks come from emission profiles the policy keeps for the
//    whole run — a leg's ranks do not depend on the horizon (the shift
//    lemma), so each is built once, when the first backlog deep enough
//    asks for it, and never again.  A leg's profile holds at most about as
//    many ranks as the largest backlog, as a selection at that backlog
//    builds anyway.  The policy holds one plan of at most `max b` tasks.

class ReplanStream final : public StreamPolicy {
 public:
  explicit ReplanStream(Platform platform) : platform_(std::move(platform)) {
    // A fork is the spider with unit legs: slave `s` becomes leg `s`, whose
    // only processor embeds as node `s + 1` in the fork's substrate too.
    // The profiles point into `platform_`, which the policy never moves.
    if (const auto* fork = std::get_if<Fork>(&platform_)) platform_ = Spider::from_fork(*fork);
    if (const auto* chain = std::get_if<Chain>(&platform_)) profile_.reset(*chain);
    if (const auto* spider = std::get_if<Spider>(&platform_)) scratch_.count.profile.reset(*spider);
  }
  ReplanStream(const ReplanStream&) = delete;
  ReplanStream& operator=(const ReplanStream&) = delete;

  void observe(const StreamArrival&) override {
    ++backlog_;
    stale_ = true;
  }

  NodeId choose(std::size_t, const DispatchContext&) override {
    // Arrivals since the last decision invalidated the plan; re-plan now
    // (once per arrival batch — re-planning per arrival inside the batch
    // would produce the same final plan at strictly more cost).
    if (stale_) replan();
    MST_ASSERT(backlog_ >= 1);
    --backlog_;
    // The backlog's plan is the chain profile's ranks `backlog_ … 0`, or
    // the held fork/spider plan's last `backlog_ + 1` tasks; processor `i`
    // of a chain embeds as node `i + 1`.
    if (std::holds_alternative<Chain>(platform_)) {
      return static_cast<NodeId>(profile_.dest(backlog_) + 1);
    }
    return plan_[plan_.size() - 1 - backlog_];
  }

  void count_work(obs::MetricsRegistry& metrics) const override {
    metrics.counter("sim.replan.plans").add(static_cast<Time>(plans_));
    metrics.counter("sim.replan.solves").add(static_cast<Time>(solves_));
    metrics.counter("sim.replan.probes").add(static_cast<Time>(probes_));
    // The profiles live as long as the policy: their depth is every rank built.
    const std::size_t ranks = std::holds_alternative<Chain>(platform_)
                                  ? profile_.depth()
                                  : scratch_.count.profile.depth();
    metrics.counter("sim.replan.ranks").add(static_cast<Time>(ranks));
  }

 private:
  /// Makes the current backlog's plan readable, solving only when no held
  /// plan serves it.
  void replan() {
    ++plans_;
    if (const auto* chain = std::get_if<Chain>(&platform_)) {
      if (backlog_ > profile_.depth()) {
        // Rejects a backlog whose T∞ leaves the time range, as a solve of
        // it would; the profile then holds its ranks, all of them at T∞.
        const Time horizon = chain->t_infinity(backlog_);
        const std::size_t ranks = profile_.ranks(horizon, backlog_);
        MST_ASSERT(ranks == backlog_);
      }
    } else if (const auto* spider = std::get_if<Spider>(&platform_)) {
      if (backlog_ != plan_.size()) {
        SpiderScheduler::destinations_into(*spider, backlog_, scratch_, dests_);
        ++solves_;
        probes_ += scratch_.count.probes;
        plan_.clear();
        for (const SpiderDest& dest : dests_) plan_.push_back(spider_node(*spider, dest));
      }
    } else {
      throw std::logic_error("mst: replan policy constructed for a tree platform");
    }
    stale_ = false;
  }

  Platform platform_;
  LegProfile profile_;                ///< a chain's ranks, kept for the run
  SpiderSolveScratch scratch_;        ///< a fork's or spider's solve buffers and profiles
  std::vector<SpiderDest> dests_;     ///< the last fork/spider solve's destinations
  std::size_t backlog_ = 0;           ///< observed, not yet dispatched
  bool stale_ = false;
  std::vector<NodeId> plan_;          ///< fork/spider destinations in master-emission order
  std::size_t plans_ = 0;             ///< replans run
  std::size_t solves_ = 0;            ///< fork/spider solves among them
  std::size_t probes_ = 0;            ///< fork/spider search probes over every solve
};

// ---------------------------------------------------------------------------
// Metrics: exact post-processing of the operational timeline.  Backlog
// events are arrivals (+1, at the release date) and first emissions (-1, at
// `master_emission`); both lists are already sorted — releases canonically,
// emissions because the master dispatches in arrival order.

StreamMetrics compute_metrics(const Workload& workload, const SimResult& sim,
                              const obs::Observation& observation) {
  StreamMetrics metrics;
  const std::size_t n = sim.tasks.size();
  metrics.latency.reserve(n);
  obs::Histogram latency_histogram;
  if (observation.metrics != nullptr) {
    observation.metrics->counter("stream.arrivals").add(static_cast<Time>(n));
    latency_histogram = observation.metrics->histogram("stream.latency");
  }
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Time latency = sim.tasks[i].end - sim.tasks[i].release;
    MST_ASSERT(latency >= 0);
    metrics.latency.push_back(latency);
    metrics.max_latency = std::max(metrics.max_latency, latency);
    latency_histogram.observe(latency);
    total += static_cast<double>(latency);
  }
  metrics.mean_latency = n > 0 ? total / static_cast<double>(n) : 0.0;

  // Trace layout: arrival instants and the backlog counter series share one
  // "stream" track at the top of the Gantt.  The serializer's stable sort
  // folds these post-hoc events into timestamp order with the simulation's.
  obs::TrackId stream_track = obs::kInvalidTrack;
  obs::NameId arrive_name = obs::kInvalidName;
  obs::NameId backlog_name = obs::kInvalidName;
  if (observation.trace != nullptr) {
    stream_track = observation.trace->track("stream");
    arrive_name = observation.trace->name("arrive");
    backlog_name = observation.trace->name("backlog");
  }

  std::size_t arrived = 0;
  std::size_t emitted = 0;
  std::size_t backlog = 0;
  while (arrived < n) {
    // Arrivals first at equal times: a task dispatched the instant it
    // arrives still counts as backlog 1.
    if (emitted >= n || workload.release_of(arrived) <= sim.tasks[emitted].master_emission) {
      if (observation.trace != nullptr) {
        const Time release = workload.release_of(arrived);
        observation.trace->instant(stream_track, arrive_name, release,
                                   static_cast<Time>(arrived));
        observation.trace->counter(stream_track, backlog_name, release,
                                   static_cast<Time>(backlog + 1));
      }
      ++arrived;
      ++backlog;
      metrics.peak_backlog = std::max(metrics.peak_backlog, backlog);
    } else {
      if (observation.trace != nullptr) {
        observation.trace->counter(stream_track, backlog_name,
                                   sim.tasks[emitted].master_emission,
                                   static_cast<Time>(backlog - 1));
      }
      ++emitted;
      MST_ASSERT(backlog > 0);
      --backlog;
    }
  }
  if (observation.metrics != nullptr) {
    observation.metrics->gauge("stream.backlog.peak")
        .record(static_cast<Time>(metrics.peak_backlog));
    observation.metrics->gauge("stream.latency.max").record(metrics.max_latency);
  }
  return metrics;
}

/// A task the stream driver has dispatched and not yet counted finished.
struct InFlight {
  Time end;
  Time start;
  NodeId node;
};

/// Later `(end, start)` first: the heap order that keeps the earliest on
/// top.  A dispatch at `now` with trigger `trigger` counts finished every
/// task not later than `{now, trigger}`.
struct Later {
  bool operator()(const InFlight& a, const InFlight& b) const {
    return a.end != b.end ? a.end > b.end : a.start > b.start;
  }
};

}  // namespace

SimResult drive_stream(const Tree& tree, const Workload& workload, StreamPolicy& policy,
                       const obs::Observation& observation) {
  const std::size_t n = workload.count();
  TreeAsapState asap(tree);
  std::vector<Time> emissions(tree.size());  // a task's hops, master first
  std::vector<std::size_t> outstanding(tree.size(), 0);
  // Tasks assigned and not yet counted finished, earliest `(end, start)`
  // on top: one entry per task in flight.
  std::vector<InFlight> in_flight;
  in_flight.reserve(tree.size());
  SimResult run;
  run.tasks.resize(n);
  run.tasks_per_node.assign(tree.size(), 0);
  std::size_t revealed = 0;
  Time previous_send = 0;

  // mstlint: zero-alloc
  for (std::size_t i = 0; i < n; ++i) {
    const Time release = workload.release_of(i);
    const Time size = workload.size_of(i);
    // The dispatch instant, and its trigger (`DispatchContext`): the
    // previous first-hop send, or the port's idle instant when the task
    // arrives later.
    const Time port_free = asap.master_port_free();
    const Time now = std::max(port_free, release);
    const Time trigger = release > port_free ? port_free : previous_send;
    // Reveal exactly the arrived prefix: every task whose release date the
    // clock has reached, and nothing else.  This is the no-lookahead
    // enforcement — the policy's whole world is these `observe` calls.
    while (revealed < n && workload.release_of(revealed) <= now) {
      policy.observe(StreamArrival{revealed, workload.size_of(revealed),
                                   workload.release_of(revealed)});
      ++revealed;
    }
    while (!in_flight.empty() && !Later{}(in_flight.front(), InFlight{now, trigger, 0})) {
      std::pop_heap(in_flight.begin(), in_flight.end(), Later{});
      --outstanding[in_flight.back().node];
      in_flight.pop_back();
    }
    const NodeId dest =
        policy.choose(i, DispatchContext{now, outstanding, asap, StreamArrival{i, size, release}});
    SimTask& task = run.tasks[i];
    task.end = asap.commit(dest, size, release);
    asap.hop_emissions(dest, size, emissions.data());
    task.dest = dest;
    task.release = release;
    task.master_emission = emissions[0];
    task.arrival = emissions[asap.depth(dest) - 1] + size * asap.proc(dest).comm;
    task.start = task.end - size * asap.proc(dest).work;
    MST_ASSERT(task.master_emission == now);
    previous_send = now;
    ++outstanding[dest];
    in_flight.push_back(InFlight{task.end, task.start, dest});
    std::push_heap(in_flight.begin(), in_flight.end(), Later{});
    ++run.tasks_per_node[dest];
    run.makespan = std::max(run.makespan, task.end);
  }
  // mstlint: zero-alloc-end

  // Only the event loop records the Gantt trace and the event and queue
  // metrics: an observed run replays its destinations through it, which
  // must reproduce the engine's timeline.
  if (observation.enabled()) MST_ASSERT(replay_dispatch(tree, run, workload, observation) == run);
  return run;
}

StreamResult simulate_stream(const Tree& tree, const Workload& workload, StreamPolicy& policy,
                             const obs::Observation& observation) {
  StreamResult result;
  result.sim = drive_stream(tree, workload, policy, observation);
  result.metrics = compute_metrics(workload, result.sim, observation);
  return result;
}

std::unique_ptr<StreamPolicy> make_stream_policy(const Tree& tree, OnlinePolicy policy,
                                                 std::uint64_t seed) {
  switch (policy) {
    case OnlinePolicy::kRoundRobin: return std::make_unique<RoundRobinStream>(tree);
    case OnlinePolicy::kRandom: return std::make_unique<RandomStream>(tree, seed);
    case OnlinePolicy::kJoinShortestQueue: return std::make_unique<JsqStream>(tree);
    case OnlinePolicy::kEarliestCompletion: return std::make_unique<EctStream>(tree);
  }
  throw std::logic_error("mst: unknown online policy");
}

std::unique_ptr<StreamPolicy> make_replan_policy(const Platform& platform) {
  if (std::holds_alternative<Tree>(platform)) {
    throw std::invalid_argument(
        "replan: no exact tree solver exists to re-plan with (chain/fork/spider only)");
  }
  return std::make_unique<ReplanStream>(platform);
}

Tree stream_substrate(const Platform& platform) {
  if (const auto* chain = std::get_if<Chain>(&platform)) return tree_from_chain(*chain);
  if (const auto* fork = std::get_if<Fork>(&platform)) {
    return tree_from_spider(Spider::from_fork(*fork));
  }
  if (const auto* spider = std::get_if<Spider>(&platform)) return tree_from_spider(*spider);
  return std::get<Tree>(platform);
}

std::unique_ptr<StreamPolicy> make_named_policy(const Platform& platform, const Tree& substrate,
                                                std::string_view algorithm, std::uint64_t seed) {
  if (algorithm == "replan") return make_replan_policy(platform);
  if (algorithm == "online-round-robin") {
    return make_stream_policy(substrate, OnlinePolicy::kRoundRobin, seed);
  }
  if (algorithm == "online-random") {
    return make_stream_policy(substrate, OnlinePolicy::kRandom, seed);
  }
  if (algorithm == "online-jsq") {
    return make_stream_policy(substrate, OnlinePolicy::kJoinShortestQueue, seed);
  }
  if (algorithm == "online-ect") {
    return make_stream_policy(substrate, OnlinePolicy::kEarliestCompletion, seed);
  }
  throw std::logic_error("mst: algorithm '" + std::string(algorithm) +
                         "' declares streaming support but has no stream policy");
}

}  // namespace mst::sim
