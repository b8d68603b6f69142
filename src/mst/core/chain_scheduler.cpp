#include "mst/core/chain_scheduler.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/core/kernels.hpp"

namespace mst {

namespace {

void require_uniform_sizes(const Workload& workload) {
  MST_REQUIRE(workload.uniform_sizes(),
              "the backward construction is only optimal for identical task sizes");
}

// Sinks of `detail::backward_construction` and the build/probe steps of the
// release-dated counts.  Statically allocation-checked (dynamic twins:
// tests/test_counting.cpp, tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

/// Count only; optionally records each task's first-link emission `C^i_1`
/// (construction order: latest task first).
struct CountSink {
  std::vector<Time>* first_emissions;
  void place(std::size_t /*dest*/, Time /*start*/, const Time* best) {
    if (first_emissions != nullptr) first_emissions->push_back(best[0]);
  }
};

/// Commits each task into a recycled slot of `out.tasks`; the emission
/// vectors keep their warm capacity across rebuilds.
struct MaterializeSink {
  ChainSchedule& out;
  std::size_t used = 0;
  void place(std::size_t dest, Time start, const Time* best) {
    if (used == out.tasks.size()) out.tasks.emplace_back();
    ChainTask& task = out.tasks[used++];
    task.proc = dest;
    task.start = start;
    task.emissions.assign(best, best + dest + 1);
  }
};

std::size_t count_backward(const Chain& chain, Time t_lim, std::size_t cap,
                           ChainCountScratch& scratch, std::vector<Time>* first_emissions) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  CountSink sink{first_emissions};
  return detail::backward_construction(chain, t_lim, cap, /*stop_on_negative=*/true, scratch,
                                       sink);
}

/// Rebuilds `out` in place, tasks in first-link emission order (the paper's
/// indexing convention; the construction produces them last to first).
void build_backward_into(const Chain& chain, Time horizon, std::size_t max_tasks,
                         bool stop_on_negative, ChainCountScratch& scratch, ChainSchedule& out) {
  out.chain = chain;  // copy-assign reuses the processor buffer when warm
  MaterializeSink sink{out};
  detail::backward_construction(chain, horizon, max_tasks, stop_on_negative, scratch, sink);
  out.tasks.resize(sink.used);
  std::reverse(out.tasks.begin(), out.tasks.end());
}

/// The count at `T = H - shift` of a counting construction's first
/// emissions at `H` (construction order, latest first).  By the shift lemma
/// (`min_horizon` in `core/kernels.hpp`) the construction at `T` emits the
/// same values lowered by `shift`, stopping before the first negative one;
/// emissions never increase along the construction, so that cut is a
/// prefix.  Without release dates the count is the cut itself.  With them
/// it is the largest k such that the k latest shifted emissions dominate
/// the k earliest release dates: `emissions[j] - shift >= releases[k-1-j]`
/// for all `j < k` (`releases` sorted ascending).  Feasible(k) implies
/// feasible(k-1) — the matched release of every emission only gets smaller
/// — so binary search is exact.
std::size_t max_released_count(const std::vector<Time>& emissions, Time shift,
                               const std::vector<Time>& releases) {
  std::size_t hi = 0;
  while (hi < emissions.size() && emissions[hi] >= shift) ++hi;
  if (releases.empty()) return hi;
  const auto feasible = [&](std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (emissions[j] - shift < releases[k - 1 - j]) return false;
    }
    return true;
  };
  std::size_t lo = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    if (feasible(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace

void ChainScheduler::build_instance(const Chain& chain, Time horizon, const Workload& workload,
                                    std::size_t cap, ChainCountScratch& scratch) {
  require_uniform_sizes(workload);
  scratch.build_horizon = horizon;
  scratch.emissions.clear();
  count_backward(chain, horizon, std::min(cap, workload.count()), scratch, &scratch.emissions);
}

std::size_t ChainScheduler::probe_instance(Time t_lim, const Workload& workload,
                                           std::size_t /*cap*/, ChainCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0 && t_lim <= scratch.build_horizon,
              "probe horizon must lie in [0, build horizon]");
  return max_released_count(scratch.emissions, scratch.build_horizon - t_lim,
                            workload.releases());
}

// mstlint: zero-alloc-end

ChainSchedule ChainScheduler::build_backward(const Chain& chain, Time horizon,
                                             std::size_t max_tasks, bool stop_on_negative) {
  ChainCountScratch scratch;
  ChainSchedule out;
  build_backward_into(chain, horizon, max_tasks, stop_on_negative, scratch, out);
  return out;
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim, std::size_t cap,
                                         ChainCountScratch& scratch) {
  return count_backward(chain, t_lim, cap, scratch, nullptr);
}

std::size_t ChainScheduler::max_tasks(const Chain& chain, Time t_lim, std::size_t cap) {
  ChainCountScratch scratch;
  return count_within(chain, t_lim, cap, scratch);
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim,
                                         const Workload& workload, std::size_t cap,
                                         ChainCountScratch& scratch) {
  require_uniform_sizes(workload);
  const std::size_t k_cap = std::min(cap, workload.count());
  if (!workload.has_release_dates()) return count_within(chain, t_lim, k_cap, scratch);
  build_instance(chain, t_lim, workload, cap, scratch);
  return probe_instance(t_lim, workload, cap, scratch);
}

void ChainScheduler::schedule_within_into(const Chain& chain, Time t_lim, std::size_t max_tasks,
                                          ChainCountScratch& scratch, ChainSchedule& out) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  build_backward_into(chain, t_lim, max_tasks, /*stop_on_negative=*/true, scratch, out);
}

void ChainScheduler::schedule_within_into(const Chain& chain, Time t_lim,
                                          const Workload& workload, std::size_t cap,
                                          ChainCountScratch& scratch, ChainSchedule& out) {
  require_uniform_sizes(workload);
  // With release dates, the k-task backward build is the prefix of the
  // counting construction, so its emissions are exactly the ones the count
  // proved release-feasible.
  const std::size_t k = workload.has_release_dates()
                            ? count_within(chain, t_lim, workload, cap, scratch)
                            : std::min(cap, workload.count());
  schedule_within_into(chain, t_lim, k, scratch, out);
}

void ChainScheduler::schedule_into(const Chain& chain, const Workload& workload,
                                   ChainCountScratch& scratch, ChainSchedule& out) {
  require_uniform_sizes(workload);
  MST_REQUIRE(workload.count() >= 1, "schedule needs at least one task");
  const std::size_t n = workload.count();
  if (workload.has_release_dates()) {
    // Minimal horizon admitting all n tasks.  The all-on-first-processor
    // schedule shifted past the last release always fits, so the upper
    // bound is feasible; monotonicity of the count in the horizon makes it
    // exact.  The backward construction runs once, at the top; every probe
    // shifts its emissions down to the probed horizon.  No -C^1_1 shift:
    // release dates are absolute, the window is the schedule.
    Time top = 0;
    const bool overflow =
        __builtin_add_overflow(workload.last_release(), chain.t_infinity(n), &top);
    MST_REQUIRE(!overflow,
                "the last release date plus T-infinity exceeds the largest time "
                "9223372036854775807");
    build_instance(chain, top, workload, n, scratch);
    const Time horizon = detail::search_instance(
        scratch, 0, top, n, [&](Time t) { return probe_instance(t, workload, n, scratch); });
    schedule_within_into(chain, horizon, workload, n, scratch, out);
    MST_ASSERT(out.tasks.size() == n);
    return;
  }
  scratch.probes = 0;
  build_backward_into(chain, chain.t_infinity(n), n, /*stop_on_negative=*/false, scratch, out);
  MST_ASSERT(out.tasks.size() == n);

  // The paper's final normalization: shift by -C^1_1 so the schedule starts
  // at time 0.  The first emission is never negative — the all-on-first-
  // processor schedule fits in [0, T∞] by construction of T∞ and the greedy
  // only ever picks vectors that are at least as late.
  const Time first_emission = out.tasks.front().emissions.front();
  MST_ASSERT(first_emission >= 0);
  out.shift(-first_emission);
}

// Value-returning forms: a local scratch around the `_into` forms above.

ChainSchedule ChainScheduler::schedule(const Chain& chain, std::size_t n) {
  return schedule(chain, Workload::identical(n));
}

ChainSchedule ChainScheduler::schedule(const Chain& chain, const Workload& workload) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_into(chain, workload, scratch, out);
  return out;
}

Time ChainScheduler::makespan(const Chain& chain, std::size_t n) {
  return makespans(chain, n).back();
}

std::vector<Time> ChainScheduler::makespans(const Chain& chain, std::size_t n) {
  const Time horizon = chain.t_infinity(n);
  ChainCountScratch scratch;
  std::vector<Time> out;
  count_backward(chain, horizon, n, scratch, &out);
  MST_ASSERT(out.size() == n);
  for (Time& emission : out) emission = horizon - emission;
  return out;
}

ChainSchedule ChainScheduler::schedule_within(const Chain& chain, Time t_lim,
                                              std::size_t max_tasks) {
  return schedule_within(chain, t_lim, Workload::identical(max_tasks), max_tasks);
}

ChainSchedule ChainScheduler::schedule_within(const Chain& chain, Time t_lim,
                                              const Workload& workload, std::size_t cap) {
  ChainCountScratch scratch;
  ChainSchedule out;
  schedule_within_into(chain, t_lim, workload, cap, scratch, out);
  return out;
}

}  // namespace mst
