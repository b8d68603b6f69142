#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <numeric>
#include <tuple>

#include "mst/common/assert.hpp"
#include "mst/core/kernels.hpp"
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

namespace {

/// The greedy selection's EDD order, ties toward the lower slave: strict on
/// a selection, where one slave's deadlines are distinct.
bool edd_before(const DeadlineJob& a, const DeadlineJob& b) {
  return std::tie(a.deadline, a.id) < std::tie(b.deadline, b.id);
}

/// Whether the EDD-ordered `jobs` all meet their deadlines run back-to-back
/// from 0 (an end past the largest time misses its deadline).
bool meets_deadlines(const std::vector<DeadlineJob>& jobs) {
  Time end = 0;
  for (const DeadlineJob& job : jobs) {
    if (__builtin_add_overflow(end, job.proc_time, &end) || end > job.deadline) return false;
  }
  return true;
}

/// The §6 greedy's selection in EDD order (`edd_before`): one job per
/// selected virtual node, its `id` the node's slave.
///
/// The greedy adds a slave's nodes in rank order while the selection stays
/// EDD-feasible, and stops at the first that does not fit.  A subset of a
/// feasible set is feasible, so what it adds is the longest prefix of ranks
/// that fits: found by bisection, each test one merge of the selection with
/// that prefix and one pass over the result, `O((N + k) log k)` per slave
/// for `N` selected and `k` nodes.
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
  std::vector<DeadlineJob> ranks;  // one slave's nodes in EDD order: highest rank first
  std::vector<DeadlineJob> merged;
  for (std::size_t i : order) {
    ranks.clear();
    for (const VirtualNode& node : expand_fork_slave(fork.slave(i), i, t_lim,
                                                     cap - selected.size())) {
      ranks.push_back({node.comm, node.deadline(t_lim), i});
    }
    std::reverse(ranks.begin(), ranks.end());
    // `merged` becomes the selection plus the slave's `k` lowest ranks.
    const auto merge_ranks = [&](std::size_t k) {
      merged.clear();
      std::merge(selected.begin(), selected.end(), ranks.end() - static_cast<std::ptrdiff_t>(k),
                 ranks.end(), std::back_inserter(merged), edd_before);
    };
    std::size_t fits = 0;  // the selection alone fits
    std::size_t fails = ranks.size() + 1;
    while (fails - fits > 1) {
      const std::size_t mid = fits + (fails - fits) / 2;
      merge_ranks(mid);
      (meets_deadlines(merged) ? fits : fails) = mid;
    }
    merge_ranks(fits);
    selected.swap(merged);
    if (selected.size() == cap) break;
  }
  return selected;
}

}  // namespace

std::size_t ForkScheduler::greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  return greedy_selection(fork, t_lim, cap).size();
}

SpiderSchedule ForkScheduler::greedy_schedule_within(const Fork& fork, Time t_lim,
                                                     std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  SpiderSchedule out{Spider::from_fork(fork), {}};
  std::vector<Time> slave_free(fork.size(), 0);
  Time port = 0;
  for (const DeadlineJob& job : greedy_selection(fork, t_lim, cap)) {
    const Processor& slave = fork.slave(job.id);
    const Time emission = port;
    port += slave.comm;
    MST_ASSERT(port <= job.deadline);
    const Time start = std::max(port, slave_free[job.id]);
    slave_free[job.id] = start + slave.work;
    out.tasks.push_back(SpiderTask{job.id, 0, start, {emission}});
  }
  return out;
}

SpiderSchedule ForkScheduler::greedy_schedule(const Fork& fork, std::size_t n) {
  MST_REQUIRE(n >= 1, "schedule needs at least one task");
  detail::SearchRange range(n, /*last_release=*/0);
  for (const Processor& slave : fork.slaves()) {
    range.add_source(slave);
    range.add_reach(slave.comm, slave.work);
  }
  const Time window = detail::min_horizon(range.floor(), range.top(), [&](Time t) {
    return greedy_max_tasks(fork, t, n) >= n;
  });
  SpiderSchedule out = greedy_schedule_within(fork, window, n);
  MST_ASSERT(out.tasks.size() == n);
  return out;
}

}  // namespace mst
