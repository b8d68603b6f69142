#include "mst/core/moore_hodgson.hpp"

#include <algorithm>
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
// EDD-sorted instance plus a horizon shift and never sort: a makespan
// search sorts its instance once and probes it at every step.
// mstlint: zero-alloc

/// Leaves the selected jobs of the EDD-sorted `jobs`, every deadline lowered
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

}  // namespace

void moore_hodgson_select(std::vector<DeadlineJob>& jobs, std::vector<SelectedJob>& selected) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  select_edd(jobs, 0, jobs.size(), selected);
}

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

  // dp[j]: minimal completion time of a feasible selection of j jobs from
  // the processed prefix, sequenced in EDD order with position j-1 starting
  // no earlier than releases[j-1].  In-place knapsack update (descending j).
  dp_scratch.assign(limit + 1, kTimeInfinity);
  dp_scratch[0] = 0;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    const std::size_t top = std::min(best + 1, limit);
    for (std::size_t j = top; j >= 1; --j) {
      if (dp_scratch[j - 1] == kTimeInfinity) continue;
      const Time start = std::max(dp_scratch[j - 1], releases[j - 1]);
      const Time finish = start + job.proc_time;
      if (finish <= deadline && finish < dp_scratch[j]) {
        dp_scratch[j] = finish;
        if (j > best) best = j;
      }
    }
    if (best == limit) break;  // the count never shrinks
  }
  return best;
}
// mstlint: zero-alloc-end

std::vector<std::size_t> moore_hodgson(std::vector<DeadlineJob> jobs) {
  std::vector<SelectedJob> selected;
  moore_hodgson_select(jobs, selected);
  std::vector<std::size_t> ids;
  ids.reserve(selected.size());
  for (const auto& [proc_time, id] : selected) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::size_t> moore_hodgson_released(std::vector<DeadlineJob> jobs,
                                                const std::vector<Time>& releases,
                                                std::size_t max_count) {
  std::sort(jobs.begin(), jobs.end(), edd_less);
  const std::size_t limit = std::min(max_count, releases.size());
  const std::size_t n = jobs.size();

  // Full (prefix, count) table so one maximum selection can be backtracked:
  // dp[i][j] after the first i jobs in EDD order.
  std::vector<std::vector<Time>> dp(n + 1, std::vector<Time>(limit + 1, kTimeInfinity));
  dp[0][0] = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const DeadlineJob& job = jobs[i - 1];
    dp[i] = dp[i - 1];
    for (std::size_t j = 1; j <= limit; ++j) {
      if (dp[i - 1][j - 1] == kTimeInfinity) continue;
      const Time finish = std::max(dp[i - 1][j - 1], releases[j - 1]) + job.proc_time;
      if (finish <= job.deadline && finish < dp[i][j]) dp[i][j] = finish;
    }
  }

  std::size_t count = limit;
  while (count > 0 && dp[n][count] == kTimeInfinity) --count;

  // Backtrack: job i-1 was taken at position j iff the value cannot come
  // from the untaken branch (ties prefer untaken — either choice is valid).
  std::vector<std::size_t> chosen(count);
  std::size_t j = count;
  for (std::size_t i = n; i >= 1 && j >= 1; --i) {
    if (dp[i][j] == dp[i - 1][j]) continue;
    chosen[j - 1] = jobs[i - 1].id;
    --j;
  }
  MST_ASSERT(j == 0);
  return chosen;
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
