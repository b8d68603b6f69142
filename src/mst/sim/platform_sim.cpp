#include "mst/sim/platform_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "mst/common/assert.hpp"
#include "mst/obs/metrics.hpp"
#include "mst/obs/trace.hpp"

namespace mst::sim {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-node gauge names are bounded so a sweep's merged registry cannot be
/// flooded by one very wide platform: nodes past the cap still feed the
/// global high-water gauge.
constexpr std::size_t kPerNodeMetricCap = 128;

/// One pending event: the master's dispatch, a hop's end (`from`'s
/// out-port frees and `task` reaches `to`) or an execution's end (`task`
/// on `to`).
struct Event {
  enum class Kind : std::uint8_t { kDispatch, kHopDone, kExecDone };
  Time time;
  std::uint64_t seq;
  Kind kind;
  NodeId from;
  NodeId to;
  std::size_t task;
};

/// Heap order: the front of the heap is the earliest `(time, seq)`.  That
/// is a total order, so firing order — ties in the order they were queued
/// — never depends on the heap's internal layout.
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Whole-run simulation state; nodes interact only through the event heap.
/// The tasks arrive with their destinations filled in; the run fills in the
/// rest of each `SimTask`.
///
/// The event loop is allocation-steady: all per-task state is sized once in
/// the constructor, routes are cached per destination (a platform has few
/// nodes, a run has many tasks), and the waiting tasks are linked through a
/// single shared `next_task_` array instead of per-node deques — a task
/// waits in at most one queue at a time, so one intrusive link suffices.
/// Observability rides the same discipline: trace tracks and event names
/// are interned here in the constructor (into the sink's fixed label
/// tables), so the per-event hooks are null checks plus reserved-capacity
/// pushes — the zero-alloc region below stays clean with a sink attached.
class Simulation {
 public:
  Simulation(const Tree& tree, const Workload& workload, std::vector<SimTask> tasks,
             const obs::Observation& observation)
      : tree_(tree), workload_(workload), n_(workload.count()), obs_(observation) {
    MST_REQUIRE(tasks.size() == n_,
                "workload and destination sequence must have the same length");
    result_.tasks = std::move(tasks);
    hop_.assign(n_, 0);
    next_task_.assign(n_, kNone);
    route_to_.resize(tree.size());
    out_queue_.assign(tree.size(), Fifo{});
    out_busy_.assign(tree.size(), false);
    cpu_queue_.assign(tree.size(), Fifo{});
    cpu_busy_.assign(tree.size(), false);
    // A bounded cut of the event graph is live at once: per node one
    // in-flight send and one running execution, plus the dispatch re-arm.
    events_.reserve(2 * tree.size() + 1);
    if (obs_.trace != nullptr) {
      // Gantt layout: one track for the master's emissions, one per link
      // (the span is the link's busy interval) and one per slave CPU.
      obs::TraceSink& trace = *obs_.trace;
      master_track_ = trace.track("master");
      comm_name_ = trace.name("comm");
      exec_name_ = trace.name("exec");
      emit_name_ = trace.name("emit");
      link_track_.assign(tree.size(), obs::kInvalidTrack);
      cpu_track_.assign(tree.size(), obs::kInvalidTrack);
      char label[obs::TraceSink::kLabelCapacity];
      for (NodeId v = 1; v < tree.size(); ++v) {
        std::snprintf(label, sizeof label, "link %zu->%zu", tree.parent(v), v);
        link_track_[v] = trace.track(label);
        std::snprintf(label, sizeof label, "cpu %zu", v);
        cpu_track_[v] = trace.track(label);
      }
    }
  }

  SimResult run() {
    schedule(0, Event::Kind::kDispatch);
    run_events();
    result_.makespan = 0;
    result_.tasks_per_node.assign(tree_.size(), 0);
    for (const SimTask& t : result_.tasks) {
      ++result_.tasks_per_node[t.dest];
      result_.makespan = std::max(result_.makespan, t.end);
    }
    record_metrics();
    return std::move(result_);
  }

 private:
  /// Intrusive FIFO of task indices threaded through `next_task_`.  Depth
  /// bookkeeping feeds the per-node queue high-water gauges.
  struct Fifo {
    std::size_t head = kNone;
    std::size_t tail = kNone;
    std::size_t depth = 0;
    std::size_t high_water = 0;
  };

  void push(Fifo& queue, std::size_t task) {
    next_task_[task] = kNone;
    if (queue.tail == kNone) {
      queue.head = task;
    } else {
      next_task_[queue.tail] = task;
    }
    queue.tail = task;
    if (++queue.depth > queue.high_water) queue.high_water = queue.depth;
  }

  std::size_t pop(Fifo& queue) {
    const std::size_t task = queue.head;
    MST_ASSERT(task != kNone);
    queue.head = next_task_[task];
    if (queue.head == kNone) queue.tail = kNone;
    --queue.depth;
    return task;
  }

  /// Root-to-destination route, computed once per destination ever used.
  const std::vector<NodeId>& route_to(NodeId dest) {
    std::vector<NodeId>& route = route_to_[dest];
    if (route.empty()) route = tree_.path_from_root(dest);
    return route;
  }

  /// Post-run counter flush; sim-clock derived, so every metric here is
  /// deterministic-class.
  void record_metrics() {
    if (obs_.metrics == nullptr) return;
    obs::MetricsRegistry& metrics = *obs_.metrics;
    // Every queued event fires, so the sequence counter counts the fired.
    metrics.counter("sim.engine.events").add(static_cast<Time>(next_seq_));
    metrics.counter("sim.tasks.completed").add(static_cast<Time>(n_));
    char name[obs::MetricsRegistry::kNameCapacity];
    Time global_hw = 0;
    for (NodeId v = 0; v < tree_.size(); ++v) {
      const std::size_t hw = std::max(out_queue_[v].high_water, cpu_queue_[v].high_water);
      global_hw = std::max(global_hw, static_cast<Time>(hw));
      if (v == 0 || v >= kPerNodeMetricCap || hw == 0) continue;
      std::snprintf(name, sizeof name, "sim.node.%03zu.queue_hw", v);
      metrics.gauge(name).record(static_cast<Time>(hw));
    }
    metrics.gauge("sim.queue.high_water").record(global_hw);
  }

  // The steady-state region: everything below runs per event, after the
  // constructor sized the arrays and the first task warmed each route.
  // Trace hooks are reserved-capacity pushes behind null checks.
  // mstlint: zero-alloc

  /// Queues an event at `time >= now_`.
  void schedule(Time time, Event::Kind kind, NodeId from = 0, NodeId to = 0,
                std::size_t task = 0) {
    MST_ASSERT(time >= now_);
    events_.push_back(Event{time, next_seq_++, kind, from, to, task});
    std::push_heap(events_.begin(), events_.end(), Later{});
  }

  /// Fires events, earliest `(time, seq)` first, until none is left.
  void run_events() {
    while (!events_.empty()) {
      std::pop_heap(events_.begin(), events_.end(), Later{});
      const Event event = events_.back();
      events_.pop_back();
      now_ = event.time;
      switch (event.kind) {
        case Event::Kind::kDispatch: master_dispatch(); break;
        case Event::Kind::kHopDone: hop_done(event.from, event.to, event.task); break;
        case Event::Kind::kExecDone: exec_done(event.to, event.task); break;
      }
    }
  }

  /// The master's out-port freed (or the run just started): enqueue the
  /// next task for its destination — the master's queue holds fresh tasks
  /// only, so dispatching is simply appending to its out-queue.  A task
  /// whose release date has not arrived re-arms the dispatch at that date
  /// (the port sits idle; release dates gate the master's emissions).
  void master_dispatch() {
    if (dispatched_ < n_) {
      const Time release = workload_.release_of(dispatched_);
      if (now_ < release) {
        schedule(release, Event::Kind::kDispatch);
        return;
      }
      const std::size_t task = dispatched_++;
      const NodeId dest = result_.tasks[task].dest;
      MST_REQUIRE(dest != 0 && dest < tree_.size(),
                  "dispatch destination must be a slave node");
      result_.tasks[task].release = release;
      push(out_queue_[0], task);
      try_send(0);
    }
  }

  void try_send(NodeId v) {
    if (out_busy_[v] || out_queue_[v].head == kNone) return;
    const std::size_t task = pop(out_queue_[v]);
    const NodeId next = route_to(result_.tasks[task].dest)[hop_[task]];
    MST_ASSERT(tree_.parent(next) == v);
    if (v == 0 && hop_[task] == 0) {
      result_.tasks[task].master_emission = now_;
      if (obs_.trace != nullptr) {
        obs_.trace->instant(master_track_, emit_name_, now_, static_cast<Time>(task));
      }
    }
    out_busy_[v] = true;
    if (obs_.trace != nullptr) {
      obs_.trace->begin(link_track_[next], comm_name_, now_, static_cast<Time>(task));
    }
    schedule(now_ + workload_.size_of(task) * tree_.proc(next).comm, Event::Kind::kHopDone, v,
             next, task);
  }

  /// `task` crossed the link `v -> next`: `v`'s out-port frees.
  void hop_done(NodeId v, NodeId next, std::size_t task) {
    out_busy_[v] = false;
    if (obs_.trace != nullptr) obs_.trace->end(link_track_[next], comm_name_, now_);
    deliver(next, task);
    if (v == 0) master_dispatch();
    try_send(v);
  }

  void deliver(NodeId node, std::size_t task) {
    ++hop_[task];
    if (hop_[task] == route_to(result_.tasks[task].dest).size()) {
      MST_ASSERT(node == result_.tasks[task].dest);
      result_.tasks[task].arrival = now_;
      push(cpu_queue_[node], task);
      try_exec(node);
    } else {
      push(out_queue_[node], task);
      try_send(node);
    }
  }

  void try_exec(NodeId node) {
    if (cpu_busy_[node] || cpu_queue_[node].head == kNone) return;
    const std::size_t task = pop(cpu_queue_[node]);
    cpu_busy_[node] = true;
    result_.tasks[task].start = now_;
    if (obs_.trace != nullptr) {
      obs_.trace->begin(cpu_track_[node], exec_name_, now_, static_cast<Time>(task));
    }
    schedule(now_ + workload_.size_of(task) * tree_.proc(node).work, Event::Kind::kExecDone, 0,
             node, task);
  }

  /// `task` finished executing on `node`.
  void exec_done(NodeId node, std::size_t task) {
    result_.tasks[task].end = now_;
    cpu_busy_[node] = false;
    if (obs_.trace != nullptr) obs_.trace->end(cpu_track_[node], exec_name_, now_);
    try_exec(node);
  }

  // mstlint: zero-alloc-end

  const Tree& tree_;
  const Workload& workload_;
  std::size_t n_;
  obs::Observation obs_;
  std::vector<Event> events_;  // binary heap under `Later`
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  SimResult result_;
  std::size_t dispatched_ = 0;
  std::vector<std::size_t> hop_;
  std::vector<std::size_t> next_task_;
  std::vector<std::vector<NodeId>> route_to_;
  std::vector<Fifo> out_queue_;
  std::vector<bool> out_busy_;
  std::vector<Fifo> cpu_queue_;
  std::vector<bool> cpu_busy_;
  obs::TrackId master_track_ = obs::kInvalidTrack;
  obs::NameId comm_name_ = obs::kInvalidName;
  obs::NameId exec_name_ = obs::kInvalidName;
  obs::NameId emit_name_ = obs::kInvalidName;
  std::vector<obs::TrackId> link_track_;
  std::vector<obs::TrackId> cpu_track_;
};

}  // namespace

SimResult simulate_dispatch(const Tree& tree, const std::vector<NodeId>& dests,
                            const obs::Observation& observation) {
  return simulate_dispatch(tree, dests, Workload::identical(dests.size()), observation);
}

SimResult simulate_dispatch(const Tree& tree, const std::vector<NodeId>& dests,
                            const Workload& workload, const obs::Observation& observation) {
  std::vector<SimTask> tasks(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) tasks[i].dest = dests[i];
  return Simulation(tree, workload, std::move(tasks), observation).run();
}

SimResult replay_dispatch(const Tree& tree, const SimResult& run, const Workload& workload,
                          const obs::Observation& observation) {
  return Simulation(tree, workload, run.tasks, observation).run();
}

}  // namespace mst::sim
