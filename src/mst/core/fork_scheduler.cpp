#include "mst/core/fork_scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "mst/common/assert.hpp"
#include "mst/core/kernels.hpp"
#include "mst/core/moore_hodgson.hpp"
#include "mst/core/virtual_nodes.hpp"

namespace mst {

namespace {

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the virtual-node selection is only optimal for identical task sizes");
}

/// The range of every fork makespan search: each slave is its own source
/// and is reached after its own link.
detail::SearchRange search_range(const Fork& fork, const Workload& workload) {
  detail::SearchRange range(workload.count(), workload.last_release());
  for (const Processor& slave : fork.slaves()) {
    range.add_source(slave);
    range.add_reach(slave.comm, slave.work);
  }
  return range;
}

// The build, select and sequencing steps run on warm scratch only —
// statically allocation-checked (dynamic twins: tests/test_counting.cpp,
// tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Sequencing order of the selected counts: slave `i` with count `k` uses
/// its virtual nodes of ranks `0..k-1` (Fig 6), in EDD order as
/// `(deadline, slave)` pairs — ties toward the lower slave index.
void edd_order(const Fork& fork, Time t_lim, ForkCountScratch& scratch) {
  scratch.seq.clear();
  for (std::size_t i = 0; i < fork.size(); ++i) {
    const Processor& slave = fork.slave(i);
    const Time m = std::max(slave.comm, slave.work);
    for (std::size_t q = 0; q < scratch.counts[i]; ++q) {
      scratch.seq.emplace_back(t_lim - (slave.work + static_cast<Time>(q) * m), i);
    }
  }
  std::sort(scratch.seq.begin(), scratch.seq.end());
}

/// Select step at `t_lim` on the instance built at `scratch.build_horizon`
/// for the same workload and cap `k_cap`, leaving the EDD sequence in
/// `scratch.seq` and returning the release dates it must honour (null
/// without).  Identical tasks: the optimal Moore–Hodgson selection on the
/// master port and its per-slave counts — only counts matter, since
/// normalizing each slave to its smallest-exec prefix is a pure deadline
/// relaxation — trimmed to the cap.  Release dates: the positional-release
/// DP's own sequence.
const std::vector<Time>* select_fork(const Fork& fork, Time t_lim, const Workload& workload,
                                     std::size_t k_cap, ForkCountScratch& scratch) {
  const Time shift = scratch.build_horizon - t_lim;
  if (workload.has_release_dates()) {
    moore_hodgson_released(scratch.edd, shift, workload.releases(), k_cap, scratch.dp,
                           scratch.taken, scratch.picked);
    // Replay the DP's own EDD sequence: position j's emission starts no
    // earlier than the j-th smallest release date, and the DP proved every
    // completion meets its chosen node's deadline.  (Re-sorting after a
    // normalization swap is NOT safe under positional releases — a job
    // moved to a later position also inherits a later release.)  Per slave,
    // the chosen ranks arrive in descending order, so the c-th arriving task
    // has at least as many virtual slots behind it as tasks actually follow
    // — the standard Fig 6 induction still bounds every completion by
    // `t_lim`.
    scratch.seq.clear();
    for (const EddJob& job : scratch.picked) {
      scratch.seq.emplace_back(job.deadline - shift, detail::run_of(scratch.offsets, job.id));
    }
    return &workload.releases();
  }

  moore_hodgson_select(scratch.edd, shift, scratch.sel_heap);
  scratch.counts.assign(fork.size(), 0);
  for (const auto& [comm, id] : scratch.sel_heap) {
    ++scratch.counts[detail::run_of(scratch.offsets, id)];
  }

  // Global cap: Moore–Hodgson sees `k_cap` nodes per slave, so the total
  // can exceed `k_cap`; trim greedily from the slaves whose *next removed*
  // node is the hardest (largest exec) — removal never breaks feasibility.
  std::size_t selected = scratch.sel_heap.size();
  while (selected > k_cap) {
    std::size_t worst = fork.size();
    Time worst_exec = -1;
    for (std::size_t i = 0; i < fork.size(); ++i) {
      if (scratch.counts[i] == 0) continue;
      const Time exec =
          fork.slave(i).work + static_cast<Time>(scratch.counts[i] - 1) * fork.cadence(i);
      if (exec > worst_exec) {
        worst_exec = exec;
        worst = i;
      }
    }
    MST_ASSERT(worst < fork.size());
    --scratch.counts[worst];
    --selected;
  }
  edd_order(fork, t_lim, scratch);
  return nullptr;
}

/// Sequencing step: replays `scratch.seq` on the master port — emissions
/// back-to-back from 0, the j-th no earlier than `releases[j]` when release
/// dates are given; executions queue FIFO per slave.  Hands each task to
/// `emit(slave, emission, start)` in emission order.
template <typename Emit>
void sequence_fork(const Fork& fork, Time t_lim, const std::vector<Time>* releases,
                   ForkCountScratch& scratch, Emit&& emit) {
  scratch.slave_free.assign(fork.size(), 0);
  Time port = 0;
  for (std::size_t position = 0; position < scratch.seq.size(); ++position) {
    const auto [deadline, slave_index] = scratch.seq[position];
    const Processor& slave = fork.slave(slave_index);
    const Time emission = releases != nullptr ? std::max(port, (*releases)[position]) : port;
    port = emission + slave.comm;
    MST_ASSERT(port <= deadline);
    const Time arrival = emission + slave.comm;
    const Time start = std::max(arrival, scratch.slave_free[slave_index]);
    scratch.slave_free[slave_index] = start + slave.work;
    MST_ASSERT(scratch.slave_free[slave_index] <= t_lim);
    emit(slave_index, emission, start);
  }
}

/// The sequencing step rebuilt into `out` in place — `ForkTask` is
/// trivially destructible, so clear()+push_back never touches the heap
/// within warm capacity.
void materialize_fork(const Fork& fork, Time t_lim, const std::vector<Time>* releases,
                      ForkCountScratch& scratch, ForkSchedule& out) {
  out.fork = fork;  // copy-assign reuses the slave buffer when warm
  out.tasks.clear();
  sequence_fork(fork, t_lim, releases, scratch,
                [&](std::size_t slave, Time emission, Time start) {
                  out.tasks.push_back(ForkTask{slave, emission, start});
                });
}

}  // namespace

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                        ForkCountScratch& scratch) {
  return count_within(fork, t_lim, Workload::identical(cap), cap, scratch);
}

std::pair<std::size_t, Time> ForkScheduler::makespan_within(const Fork& fork, Time t_lim,
                                                            std::size_t cap,
                                                            ForkCountScratch& scratch) {
  const Workload tasks = Workload::identical(cap);
  build_instance(fork, t_lim, tasks, cap, scratch);
  select_fork(fork, t_lim, tasks, cap, scratch);
  Time makespan = 0;
  sequence_fork(fork, t_lim, nullptr, scratch,
                [&](std::size_t slave, Time /*emission*/, Time start) {
                  makespan = std::max(makespan, start + fork.slave(slave).work);
                });
  return {scratch.seq.size(), makespan};
}

std::size_t ForkScheduler::count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                        std::size_t cap, ForkCountScratch& scratch) {
  build_instance(fork, t_lim, workload, cap, scratch);
  return probe_instance(t_lim, workload, cap, scratch);
}

void ForkScheduler::build_instance(const Fork& fork, Time horizon, const Workload& workload,
                                   std::size_t cap, ForkCountScratch& scratch) {
  require_uniform_sizes(workload);
  MST_REQUIRE(horizon >= 0, "time limit must be non-negative");
  // A node `(exec, comm)` exists at `T <= horizon` iff `exec + comm <= T`,
  // i.e. iff its shifted deadline `T - exec` is still at least `comm` —
  // exactly the probe's filter.  Slave `i` contributes its first
  // `fork_node_count` ranks, ids `offsets[i] + rank` (the enumeration
  // order of `expand_fork`); its deadlines fall with the rank, so its run in
  // EDD order is the ranks in descending order.
  const std::size_t k_cap = std::min(cap, workload.count());
  scratch.build_horizon = horizon;
  scratch.offsets.assign(1, 0);
  for (const Processor& slave : fork.slaves()) {
    scratch.offsets.push_back(scratch.offsets.back() + fork_node_count(slave, horizon, k_cap));
  }
  detail::merge_edd_runs(
      scratch.offsets,
      [&](std::size_t i, std::size_t j) {
        const Processor& slave = fork.slave(i);
        const std::size_t rank = scratch.offsets[i + 1] - scratch.offsets[i] - 1 - j;
        const Time exec = slave.work + static_cast<Time>(rank) * fork.cadence(i);
        return EddJob{horizon - exec, slave.comm, scratch.offsets[i] + rank};
      },
      scratch.merge, scratch.edd);
}

std::size_t ForkScheduler::probe_instance(Time t_lim, const Workload& workload, std::size_t cap,
                                          ForkCountScratch& scratch) {
  // The select step's global cap trim only ever reduces the total to the
  // cap, so the probe's `min` reproduces it.
  return detail::probe_selection(scratch, t_lim, workload, cap);
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, std::size_t cap,
                                         ForkCountScratch& scratch, ForkSchedule& out) {
  schedule_within_into(fork, t_lim, Workload::identical(cap), cap, scratch, out);
}

void ForkScheduler::schedule_within_into(const Fork& fork, Time t_lim, const Workload& workload,
                                         std::size_t cap, ForkCountScratch& scratch,
                                         ForkSchedule& out) {
  build_instance(fork, t_lim, workload, cap, scratch);
  const std::size_t k_cap = std::min(cap, workload.count());
  materialize_fork(fork, t_lim, select_fork(fork, t_lim, workload, k_cap, scratch), scratch, out);
}

void ForkScheduler::schedule_into(const Fork& fork, const Workload& workload,
                                  ForkCountScratch& scratch, ForkSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  // The node instance is built once, at the top; every probe shifts it down
  // to its horizon, and the optimum is selected from it too.
  const std::size_t n = workload.count();
  const detail::SearchRange range = search_range(fork, workload);
  build_instance(fork, range.top(), workload, n, scratch);
  scratch.floor = range.floor();
  const Time horizon = detail::search_instance(
      scratch, scratch.floor, n, [&](Time t) { return probe_instance(t, workload, n, scratch); });
  materialize_fork(fork, horizon, select_fork(fork, horizon, workload, n, scratch), scratch, out);
  MST_ASSERT(out.tasks.size() == n);
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

/// Shared engine for the §6 greedy: returns the per-slave counts it
/// selects.
std::vector<std::size_t> greedy_counts(const Fork& fork, Time t_lim, std::size_t cap) {
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

  std::vector<std::size_t> counts(fork.size(), 0);
  std::vector<DeadlineJob> selected;
  std::size_t total = 0;
  for (std::size_t i : order) {
    const auto nodes = expand_fork_slave(fork.slave(i), i, t_lim, cap);
    for (const VirtualNode& node : nodes) {
      if (total >= cap) return counts;
      std::vector<DeadlineJob> trial = selected;
      trial.push_back({node.comm, node.deadline(t_lim), total});
      if (!edd_feasible(trial)) break;  // rank q failed; rank q+1 is strictly harder
      selected = std::move(trial);
      ++counts[i];
      ++total;
    }
  }
  return counts;
}

}  // namespace

std::size_t ForkScheduler::greedy_max_tasks(const Fork& fork, Time t_lim, std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  std::size_t total = 0;
  for (std::size_t c : greedy_counts(fork, t_lim, cap)) total += c;
  return total;
}

ForkSchedule ForkScheduler::greedy_schedule_within(const Fork& fork, Time t_lim,
                                                   std::size_t cap) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  ForkCountScratch scratch;
  scratch.counts = greedy_counts(fork, t_lim, cap);
  edd_order(fork, t_lim, scratch);
  ForkSchedule out;
  materialize_fork(fork, t_lim, nullptr, scratch, out);
  return out;
}

}  // namespace mst
