#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <cstddef>

#include "mst/common/assert.hpp"

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

/// The start pass over the unit-leg spider schedule `out`, in place: each
/// task keeps its slave (its leg) and emission, and starts as soon as it has
/// arrived and its slave is free.  A slave receives its tasks in emission
/// order, so by induction each start is at most the planned one.
void start_asap(const Fork& fork, ForkCountScratch& scratch, SpiderSchedule& out) {
  scratch.slave_free.assign(fork.size(), 0);
  for (SpiderTask& task : out.tasks) {
    const Processor& slave = fork.slaves()[task.leg];
    Time& slave_free = scratch.slave_free[task.leg];
    const Time start = std::max(task.emissions.front() + slave.comm, slave_free);
    MST_ASSERT(start <= task.start);
    task.start = start;
    slave_free = start + slave.work;
  }
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

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                         ForkCountScratch& scratch, SpiderSchedule& out) {
  schedule_within_into(fork, t_lim, Workload::identical(cap), cap, scratch, out);
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                         std::size_t cap, ForkCountScratch& scratch,
                                         SpiderSchedule& out) {
  SpiderScheduler::schedule_within_into(unit_legs(fork, scratch), t_lim, workload, cap,
                                        scratch.solve, out);
  start_asap(fork, scratch, out);
}

void ForkScheduler::schedule_into(const Fork& fork, const Workload& workload,
                                  ForkCountScratch& scratch, SpiderSchedule& out) {
  SpiderScheduler::schedule_into(unit_legs(fork, scratch), workload, scratch.solve, out);
  start_asap(fork, scratch, out);
}
// mstlint: zero-alloc-end

// Value-returning forms: a local scratch around the `_into` forms above.

SpiderSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim, std::size_t cap) {
  return schedule_within(fork, t_lim, Workload::identical(cap), cap);
}

SpiderSchedule ForkScheduler::schedule_within(const Fork& fork, Time t_lim,
                                              const Workload& workload, std::size_t cap) {
  ForkCountScratch scratch;
  SpiderSchedule out;
  schedule_within_into(fork, t_lim, workload, cap, scratch, out);
  return out;
}

SpiderSchedule ForkScheduler::schedule(const Fork& fork, std::size_t n) {
  return schedule(fork, Workload::identical(n));
}

SpiderSchedule ForkScheduler::schedule(const Fork& fork, const Workload& workload) {
  ForkCountScratch scratch;
  SpiderSchedule out;
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

}  // namespace mst
