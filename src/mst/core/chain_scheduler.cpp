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

// The materializing sink, the profile and its release-dated counts.
// Statically allocation-checked (dynamic twins: tests/test_counting.cpp,
// tests/test_zero_alloc.cpp).
// mstlint: zero-alloc

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

/// The release-dated count at `t` of the profile's first `ranks` ranks
/// there (`profile.ranks(t, …)`): the largest k such that the k latest
/// emissions dominate the k earliest release dates,
/// `emission(j, t) >= releases[k-1-j]` for all `j < k` (`releases` sorted
/// ascending).  Feasible(k) implies feasible(k-1) — the matched release of
/// every emission only gets smaller — so binary search is exact.
std::size_t released_count(const LegProfile& profile, std::size_t ranks, Time t,
                           const std::vector<Time>& releases) {
  const auto feasible = [&](std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (profile.emission(j, t) < releases[k - 1 - j]) return false;
    }
    return true;
  };
  std::size_t lo = 0;
  std::size_t hi = ranks;
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

void LegProfile::reset(const Chain& leg) {
  leg_ = &leg;
  started_ = false;
  exhausted_ = false;
  ranks_.clear();
}

std::size_t LegProfile::ranks(Time t, std::size_t cap) {
  MST_ASSERT(leg_ != nullptr && t >= 0);
  const Time least = kAnchor - t;  // the least anchored emission that exists at `t`
  if (!started_) {
    detail::start_backward(*leg_, kAnchor, /*fixed_count=*/false, state_);
    started_ = true;
  }
  // Extend while fewer than `cap` ranks are built and the next one may
  // exist at `t`: its first emission is at most `a_0`, the first link's
  // hull less `c_1`, so once that falls below `least` no rank is built in
  // vain.  A rank is committed only when its anchored emission is at least
  // 0, which keeps the state in the checked range.
  while (ranks_.size() < cap && !exhausted_ && state_.hull_slack()[0] >= least) {
    const std::size_t dest = detail::next_backward(*leg_, state_);
    const Time emission = state_.best()[0];
    if (emission < 0) {
      exhausted_ = true;
      break;
    }
    detail::commit_backward(*leg_, dest, state_);
    ranks_.push_back(Rank{emission, dest});
  }
  // Emissions never increase along the construction, so the ranks at `t`
  // are a prefix.
  const auto end = ranks_.begin() + static_cast<std::ptrdiff_t>(std::min(cap, depth()));
  return static_cast<std::size_t>(
      std::partition_point(ranks_.begin(), end,
                           [least](const Rank& rank) { return rank.emission >= least; }) -
      ranks_.begin());
}

Time LegProfile::makespan(std::size_t n) {
  const Time horizon = leg_->t_infinity(n);
  const std::size_t built = ranks(horizon, n);
  MST_ASSERT(built == n);
  return horizon - emission(n - 1, horizon);
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim, std::size_t cap,
                                         ChainCountScratch& scratch) {
  MST_REQUIRE(t_lim >= 0, "time limit must be non-negative");
  scratch.profile.reset(chain);
  return scratch.profile.ranks(t_lim, cap);
}

std::size_t ChainScheduler::count_within(const Chain& chain, Time t_lim,
                                         const Workload& workload, std::size_t cap,
                                         ChainCountScratch& scratch) {
  require_uniform_sizes(workload);
  const std::size_t ranks = count_within(chain, t_lim, std::min(cap, workload.count()), scratch);
  if (!workload.has_release_dates()) return ranks;
  return released_count(scratch.profile, ranks, t_lim, workload.releases());
}

// mstlint: zero-alloc-end

ChainSchedule ChainScheduler::build_backward(const Chain& chain, Time horizon,
                                             std::size_t max_tasks, bool stop_on_negative) {
  ChainCountScratch scratch;
  ChainSchedule out;
  build_backward_into(chain, horizon, max_tasks, stop_on_negative, scratch, out);
  return out;
}

std::size_t ChainScheduler::max_tasks(const Chain& chain, Time t_lim, std::size_t cap) {
  ChainCountScratch scratch;
  return count_within(chain, t_lim, cap, scratch);
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
    // exact.  The profile builds its n ranks once, at the top; every probe
    // reads them shifted down to the probed horizon.  No -C^1_1 shift:
    // release dates are absolute, the window is the schedule.
    Time top = 0;
    const bool overflow =
        __builtin_add_overflow(workload.last_release(), chain.t_infinity(n), &top);
    MST_REQUIRE(!overflow,
                "the last release date plus T-infinity exceeds the largest time "
                "9223372036854775807");
    LegProfile& profile = scratch.profile;
    profile.reset(chain);
    profile.ranks(top, n);
    const Time horizon = detail::search_instance(scratch, 0, top, n, [&](Time t) {
      return released_count(profile, profile.ranks(t, n), t, workload.releases());
    });
    // The count at `T*` reached n, so the n-task backward build there is
    // release-feasible: no recount through the workload form.
    schedule_within_into(chain, horizon, n, scratch, out);
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
  LegProfile profile;
  profile.reset(chain);
  return profile.makespan(n);
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
