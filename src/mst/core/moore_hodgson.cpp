#include "mst/core/moore_hodgson.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

// The positional-release DP runs on caller scratch only — statically
// allocation-checked (dynamic twins: tests/test_counting.cpp,
// tests/test_zero_alloc.cpp).  It takes an EDD-ordered instance plus a
// horizon shift and never sorts: a makespan search builds its instance
// once, probes it at every step and selects from it at its optimum.
// mstlint: zero-alloc

/// Never reached by a feasible selection of that many jobs.
constexpr Time kUnreached = std::numeric_limits<Time>::max();

/// The least processing time of the instance: no job finishes a position
/// sooner after its start.
Time least_proc_time(const std::vector<EddJob>& edd) {
  Time least = kUnreached;
  for (const EddJob& job : edd) least = std::min(least, job.proc_time);
  return least;
}

/// Extends the frozen prefix `[0, frozen]` of the row `dp[0..best]`: the
/// longest prefix with `dp[i] <= max(dp[i-1], releases[i-1]) + p_min` at
/// every `i <= frozen`.  A later job, of processing time `p >= p_min`,
/// offers `max(dp[j-1], releases[j-1]) + p >= dp[j]` at each such `j`, so
/// it lowers no entry of the prefix and sets none of its bits; and since
/// the test at `i` reads only `dp[i-1]` and `dp[i]`, the prefix stays
/// frozen (by induction from `dp[0] = 0`) and only grows.  Amortized O(1)
/// per job: `frozen` never passes `best`, which only grows.
std::size_t extend_frozen(const Time* dp, const std::vector<Time>& releases, Time p_min,
                          std::size_t frozen, std::size_t best) {
  while (frozen < best && dp[frozen + 1] <= std::max(dp[frozen], releases[frozen]) + p_min) {
    ++frozen;
  }
  return frozen;
}

/// One job of the positional-release DP, in place on the row `dp[0..limit]`
/// (`dp[j]`: minimal completion time of a feasible j-job selection of the
/// processed prefix, sequenced in EDD order with position j-1 starting no
/// earlier than `releases[j-1]`).  A knapsack update in descending j, so
/// each `dp[j-1]` read is still the row before this job.  It visits only
/// the positions `(frozen, min(best + 1, limit)]`: none at or below
/// `frozen` can change (`extend_frozen`), and the reachable entries are
/// exactly the prefix `[0, best]` — dropping a feasible selection's last
/// job leaves a feasible selection one shorter — so every `dp[j-1]` read
/// is reached.  Sets bit j of `taken` (when given) whenever the job lowers
/// `dp[j]`: a backtrack takes the job at position j exactly there.
/// Returns the new largest reachable j (`best` before).
///
/// Out of line and 64-byte aligned: inlined into its two callers, this
/// loop's speed moved by a quarter with the size of unrelated code linked
/// before it.
[[gnu::noinline, gnu::aligned(64)]]
std::size_t relax_released(Time* dp, Time proc_time, Time deadline,
                           const std::vector<Time>& releases, std::size_t limit,
                           std::size_t frozen, std::size_t best, std::uint64_t* taken) {
  for (std::size_t j = std::min(best + 1, limit); j > frozen; --j) {
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

std::size_t moore_hodgson_released_count(const std::vector<EddJob>& edd, Time shift,
                                         const std::vector<Time>& releases,
                                         std::size_t max_count, std::vector<Time>& dp_scratch,
                                         std::size_t& cells) {
  const std::size_t limit = std::min(max_count, releases.size());
  dp_scratch.assign(limit + 1, kUnreached);
  dp_scratch[0] = 0;
  const Time p_min = least_proc_time(edd);
  std::size_t frozen = 0;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    frozen = extend_frozen(dp_scratch.data(), releases, p_min, frozen, best);
    cells += std::min(best + 1, limit) - frozen;
    best = relax_released(dp_scratch.data(), job.proc_time, deadline, releases, limit, frozen,
                          best, nullptr);
    if (best == limit) break;  // the count never shrinks
  }
  return best;
}

void moore_hodgson_released(const std::vector<EddJob>& edd, Time shift,
                            const std::vector<Time>& releases, std::size_t max_count,
                            std::vector<Time>& dp_scratch, std::vector<std::uint64_t>& taken,
                            std::vector<EddJob>& picked, std::size_t& cells) {
  const std::size_t limit = std::min(max_count, releases.size());
  const std::size_t words = limit / 64 + 1;  // one bit per j in [0, limit]

  // One DP row, plus one bit row per job present at this horizon: bit j of
  // row r is set iff the r-th present job lowered `dp[j]`, i.e. iff the
  // full (prefix, count) table differs there from the row before — all a
  // backtrack needs, at 1/64 of the table.
  dp_scratch.assign(limit + 1, kUnreached);
  dp_scratch[0] = 0;
  taken.clear();
  const Time p_min = least_proc_time(edd);
  std::size_t frozen = 0;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    const std::size_t row = taken.size();
    taken.resize(row + words, 0);
    frozen = extend_frozen(dp_scratch.data(), releases, p_min, frozen, best);
    cells += std::min(best + 1, limit) - frozen;
    best = relax_released(dp_scratch.data(), job.proc_time, deadline, releases, limit, frozen,
                          best, taken.data() + row);
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

}  // namespace mst
