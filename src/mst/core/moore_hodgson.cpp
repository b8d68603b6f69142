#include "mst/core/moore_hodgson.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

/// Deterministic EDD order (a function object, so `std::sort` inlines it).
constexpr auto edd_less = [](const DeadlineJob& a, const DeadlineJob& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  if (a.proc_time != b.proc_time) return a.proc_time < b.proc_time;
  return a.id < b.id;
};

Time proc_time_of(Time entry) { return entry; }
Time proc_time_of(const SelectedJob& entry) { return entry.first; }

// The one Moore–Hodgson body and the positional-release DP run on caller
// scratch only — statically allocation-checked (dynamic twins:
// tests/test_counting.cpp, tests/test_zero_alloc.cpp).  Both take an
// EDD-ordered instance plus a horizon shift and never sort: a makespan
// search builds its instance once, probes it at every step and selects
// from it at its optimum.
// mstlint: zero-alloc

/// Leaves the selected jobs of the EDD-ordered `jobs`, every deadline lowered
/// by `shift`, in `selected` (heap order).  A job whose shifted deadline is
/// below its processing time is skipped: it does not exist at the shifted
/// horizon, and it could never be on time anyway — every job selected
/// before it is strictly shorter, so the eviction it triggers would drop
/// the job itself.  The selection is a max-heap on processing time: when
/// the running total overshoots a deadline, evicting the longest selected
/// job is optimal (Moore 1968).  `Entry` is either the processing time
/// alone (the count is invariant under which of several longest-job ties
/// gets evicted) or a `SelectedJob`, which also makes the eviction among
/// equals deterministic.  Every step adds one job and evicts at most one,
/// so the selection never shrinks: the pass stops once `limit` jobs are
/// selected.
template <typename Job, typename Entry>
void select_edd(const std::vector<Job>& jobs, Time shift, std::size_t limit,
                std::vector<Entry>& selected) {
  selected.clear();
  Time total = 0;
  for (const Job& job : jobs) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;
    if constexpr (std::is_same_v<Entry, Time>) {
      selected.push_back(job.proc_time);
    } else {
      selected.emplace_back(job.proc_time, job.id);
    }
    std::push_heap(selected.begin(), selected.end());
    total += job.proc_time;
    if (total > deadline) {
      std::pop_heap(selected.begin(), selected.end());
      total -= proc_time_of(selected.back());
      selected.pop_back();
    }
    if (selected.size() >= limit) return;
  }
}

/// Never reached by a feasible selection of that many jobs.
constexpr Time kUnreached = std::numeric_limits<Time>::max();

/// One job of the positional-release DP, in place on the row `dp[0..limit]`
/// (`dp[j]`: minimal completion time of a feasible j-job selection of the
/// processed prefix, sequenced in EDD order with position j-1 starting no
/// earlier than `releases[j-1]`).  A knapsack update in descending j, so
/// each `dp[j-1]` read is still the row before this job.  Sets bit j of
/// `taken` (when given) whenever the job lowers `dp[j]`: a backtrack takes
/// the job at position j exactly there.  Returns the new largest reachable
/// j (`best` before).
std::size_t relax_released(Time* dp, Time proc_time, Time deadline,
                           const std::vector<Time>& releases, std::size_t limit, std::size_t best,
                           std::uint64_t* taken) {
  for (std::size_t j = std::min(best + 1, limit); j >= 1; --j) {
    if (dp[j - 1] == kUnreached) continue;
    const Time finish = std::max(dp[j - 1], releases[j - 1]) + proc_time;
    if (finish <= deadline && finish < dp[j]) {
      dp[j] = finish;
      best = std::max(best, j);
      if (taken != nullptr) taken[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  return best;
}

}  // namespace

std::size_t moore_hodgson_count(std::vector<DeadlineJob>& jobs, std::vector<Time>& heap_scratch) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  select_edd(jobs, 0, jobs.size(), heap_scratch);
  return heap_scratch.size();
}

std::size_t moore_hodgson_count(const std::vector<EddJob>& edd, Time shift, std::size_t limit,
                                std::vector<Time>& heap_scratch) {
  select_edd(edd, shift, limit, heap_scratch);
  return std::min(heap_scratch.size(), limit);
}

std::size_t moore_hodgson_released_count(const std::vector<EddJob>& edd, Time shift,
                                         const std::vector<Time>& releases,
                                         std::size_t max_count, std::vector<Time>& dp_scratch) {
  const std::size_t limit = std::min(max_count, releases.size());
  dp_scratch.assign(limit + 1, kUnreached);
  dp_scratch[0] = 0;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    best = relax_released(dp_scratch.data(), job.proc_time, deadline, releases, limit, best,
                          nullptr);
    if (best == limit) break;  // the count never shrinks
  }
  return best;
}

void moore_hodgson_released(const std::vector<EddJob>& edd, Time shift,
                            const std::vector<Time>& releases, std::size_t max_count,
                            std::vector<Time>& dp_scratch, std::vector<std::uint64_t>& taken,
                            std::vector<EddJob>& picked) {
  const std::size_t limit = std::min(max_count, releases.size());
  const std::size_t words = limit / 64 + 1;  // one bit per j in [0, limit]

  // One DP row, plus one bit row per job present at this horizon: bit j of
  // row r is set iff the r-th present job lowered `dp[j]`, i.e. iff the
  // full (prefix, count) table differs there from the row before — all a
  // backtrack needs, at 1/64 of the table.
  dp_scratch.assign(limit + 1, kUnreached);
  dp_scratch[0] = 0;
  taken.clear();
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    const std::size_t row = taken.size();
    taken.resize(row + words, 0);
    best = relax_released(dp_scratch.data(), job.proc_time, deadline, releases, limit, best,
                          taken.data() + row);
  }

  // Backtrack: the job of row r was taken at position j iff it lowered
  // `dp[j]` (ties prefer untaken — either choice is valid).
  picked.resize(best);
  std::size_t j = best;
  std::size_t row = taken.size() / words;
  for (auto job = edd.rbegin(); job != edd.rend() && j >= 1; ++job) {
    if (job->deadline - shift < job->proc_time) continue;
    --row;
    if ((taken[row * words + j / 64] >> (j % 64)) & 1U) picked[--j] = *job;
  }
  MST_ASSERT(j == 0);
}
// mstlint: zero-alloc-end

std::vector<std::size_t> moore_hodgson(std::vector<DeadlineJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  std::vector<SelectedJob> selected;
  select_edd(jobs, 0, jobs.size(), selected);
  std::vector<std::size_t> ids;
  ids.reserve(selected.size());
  for (const auto& [proc_time, id] : selected) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool edd_feasible(std::vector<DeadlineJob> jobs) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  Time total = 0;
  for (const DeadlineJob& job : jobs) {
    total += job.proc_time;
    if (total > job.deadline) return false;
  }
  return true;
}

std::vector<Time> sequence_edd(const std::vector<DeadlineJob>& jobs) {
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return edd_less(jobs[a], jobs[b]); });

  std::vector<Time> starts(jobs.size(), 0);
  Time cursor = 0;
  for (std::size_t idx : order) {
    starts[idx] = cursor;
    cursor += jobs[idx].proc_time;
    MST_ASSERT(cursor <= jobs[idx].deadline);
  }
  return starts;
}

}  // namespace mst
