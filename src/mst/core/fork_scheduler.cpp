#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "mst/common/assert.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/virtual_nodes.hpp"

namespace mst {

namespace {

// The exact forms run on warm scratch only — statically allocation-checked
// (dynamic twins: tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// The fork as its unit-leg spider, rebuilt in `scratch.spider` in place.
const Spider& unit_legs(const Fork& fork, ForkCountScratch& scratch) {
  scratch.spider.assign_fork(fork);
  return scratch.spider;
}

/// The start pass over the spider plan in `scratch.plan`: each task keeps
/// its slave (its leg) and emission, and starts as soon as it has arrived
/// and its slave is free.  A slave receives its tasks in emission order, so
/// by induction each start is at most the planned one.  Hands each task to
/// `emit(slave, emission, start)` in emission order.
template <typename Emit>
void start_asap(const Fork& fork, ForkCountScratch& scratch, Emit&& emit) {
  scratch.slave_free.assign(fork.size(), 0);
  for (const SpiderTask& task : scratch.plan.tasks) {
    const Processor& slave = fork.slaves()[task.leg];
    const Time emission = task.emissions.front();
    const Time start = std::max(emission + slave.comm, scratch.slave_free[task.leg]);
    MST_ASSERT(start <= task.start);
    scratch.slave_free[task.leg] = start + slave.work;
    emit(task.leg, emission, start);
  }
}

/// The start pass rebuilt into `out` in place — `ForkTask` is trivially
/// destructible, so clear()+push_back never touches the heap within warm
/// capacity.
void materialize(const Fork& fork, ForkCountScratch& scratch, ForkSchedule& out) {
  out.fork = fork;  // copy-assign reuses the slave buffer when warm
  out.tasks.clear();
  start_asap(fork, scratch, [&](std::size_t slave, Time emission, Time start) {
    out.tasks.push_back(ForkTask{slave, emission, start});
  });
}

}  // namespace

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                        ForkCountScratch& scratch) {
  return count_within(fork, t_lim, Workload::identical(cap), cap, scratch);
}

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                        std::size_t cap, ForkCountScratch& scratch) {
  return SpiderScheduler::count_within(unit_legs(fork, scratch), t_lim, workload, cap,
                                       scratch.solve.count);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  SpiderScheduler::schedule_within_into(unit_legs(fork, scratch), t_lim, cap, scratch.solve,
                                        scratch.plan);
  Time makespan = 0;
  start_asap(fork, scratch, [&](std::size_t slave, Time /*emission*/, Time start) {
    makespan = std::max(makespan, start + fork.slaves()[slave].work);
  });
  return {scratch.plan.tasks.size(), makespan};
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  schedule_within_into(fork, t_lim, Workload::identical(cap), cap, scratch, out);
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                         std::size_t cap, ForkCountScratch& scratch,
                                         ForkSchedule& out) {
  SpiderScheduler::schedule_within_into(unit_legs(fork, scratch), t_lim, workload, cap,
                                        scratch.solve, scratch.plan);
  materialize(fork, scratch, out);
}

void ForkScheduler::schedule_into(const Fork& fork, const Workload& workload,
                                  ForkCountScratch& scratch, ForkSchedule& out) {
  SpiderScheduler::schedule_into(unit_legs(fork, scratch), workload, scratch.solve,
                                 scratch.plan);
  materialize(fork, scratch, out);
}
// mstlint: zero-alloc-end

// Value-returning forms: a local scratch around the `_into` forms above.

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim, std::size_t cap) {
  return schedule_within(fork, t_lim, Workload::identical(cap), cap);
}

ForkSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim,
                                            const Workload& workload, std::size_t cap) {
  ForkCountScratch scratch;
  ForkSchedule out;
  schedule_within_into(fork, t_lim, workload, cap, scratch, out);
  return out;
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, std::size_t n) {
  return schedule(fork, Workload::identical(n));
}

ForkSchedule ForkScheduler::schedule(const Fork& fork, const Workload& workload) {
  ForkCountScratch scratch;
  ForkSchedule out;
  schedule_into(fork, workload, scratch, out);
  return out;
}

Time ForkScheduler::makespan(const Fork& fork, std::size_t n) {
  return schedule(fork, n).makespan();
}

std::size_t ForkScheduler::max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  ForkCountScratch scratch;
  return count_within(fork, t_lim, cap, scratch);
}

namespace {

/// The §6 greedy's selection: one job per selected virtual node, its `id`
/// the node's slave.
std::vector<DeadlineJob> greedy_selection(const Fork& fork, Time t_lim, std::size_t cap) {
  // §6: processors sorted by ascending communication times, ties broken by
  // ascending processing times.
  std::vector<std::size_t> order(fork.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Processor& pa = fork.slave(a);
    const Processor& pb = fork.slave(b);
    if (pa.comm != pb.comm) return pa.comm < pb.comm;
    if (pa.work != pb.work) return pa.work < pb.work;
    return a < b;
  });

  std::vector<DeadlineJob> selected;
  for (std::size_t i : order) {
    for (const VirtualNode& node : expand_fork_slave(fork.slave(i), i, t_lim, cap)) {
      if (selected.size() >= cap) return selected;
      std::vector<DeadlineJob> trial = selected;
      trial.push_back({node.comm, node.deadline(t_lim), i});
      if (!edd_feasible(trial)) break;  // rank q failed; rank q+1 is strictly harder
      selected = std::move(trial);
    }
  }
  return selected;
}

}  // namespace

std::size_t ForkScheduler::greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  return greedy_selection(fork, t_lim, cap).size();
}

ForkSchedule ForkScheduler::greedy_schedule_within(const Fork& fork, Time t_lim,
                                                   std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  std::vector<DeadlineJob> selected = greedy_selection(fork, t_lim, cap);
  // EDD, ties toward the lower slave (one slave's deadlines are distinct).
  std::sort(selected.begin(), selected.end(), [](const DeadlineJob& a, const DeadlineJob& b) {
    return std::tie(a.deadline, a.id) < std::tie(b.deadline, b.id);
  });
  ForkSchedule out{fork, {}};
  std::vector<Time> slave_free(fork.size(), 0);
  Time port = 0;
  for (const DeadlineJob& job : selected) {
    const Processor& slave = fork.slave(job.id);
    const Time emission = port;
    port += slave.comm;
    MST_ASSERT(port <= job.deadline);
    const Time start = std::max(port, slave_free[job.id]);
    slave_free[job.id] = start + slave.work;
    out.tasks.push_back(ForkTask{job.id, emission, start});
  }
  return out;
}

}  // namespace mst
