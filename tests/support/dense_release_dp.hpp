#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/core/moore_hodgson.hpp"

/// \file dense_release_dp.hpp
/// Test oracle: the dense positional-release selection DP, as the library
/// ran it before it skipped the frozen prefix of the row.  Every job relaxes
/// every position from `min(best + 1, limit)` down to 1, so the row, each
/// backtrack bit, the count and the picked jobs are the library's by
/// definition; `tests/test_moore_hodgson.cpp` compares
/// `moore_hodgson_released*` with it.  `cells` counts the positions the
/// dense loop visits, the work the library's skip is measured against.

namespace mst::oracle {

constexpr Time kDenseUnreached = std::numeric_limits<Time>::max();

/// The dense loop of one job over the row `dp[0..limit]`, verbatim.
inline std::size_t dense_relax_released(Time* dp, Time proc_time, Time deadline,
                                        const std::vector<Time>& releases, std::size_t limit,
                                        std::size_t best, std::uint64_t* taken) {
  for (std::size_t j = std::min(best + 1, limit); j >= 1; --j) {
    if (dp[j - 1] == kDenseUnreached) continue;
    const Time finish = std::max(dp[j - 1], releases[j - 1]) + proc_time;
    if (finish <= deadline && finish < dp[j]) {
      dp[j] = finish;
      best = std::max(best, j);
      if (taken != nullptr) taken[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  }
  return best;
}

/// `moore_hodgson_released_count`, dense.
inline std::size_t dense_released_count(const std::vector<EddJob>& edd, Time shift,
                                        const std::vector<Time>& releases,
                                        std::size_t max_count, std::size_t& cells) {
  const std::size_t limit = std::min(max_count, releases.size());
  std::vector<Time> dp(limit + 1, kDenseUnreached);
  dp[0] = 0;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    cells += std::min(best + 1, limit);
    best = dense_relax_released(dp.data(), job.proc_time, deadline, releases, limit, best,
                                nullptr);
    if (best == limit) break;  // the count never shrinks
  }
  return best;
}

/// `moore_hodgson_released`, dense: the picked jobs, in EDD order.
inline std::vector<EddJob> dense_released(const std::vector<EddJob>& edd, Time shift,
                                          const std::vector<Time>& releases,
                                          std::size_t max_count, std::size_t& cells) {
  const std::size_t limit = std::min(max_count, releases.size());
  const std::size_t words = limit / 64 + 1;
  std::vector<Time> dp(limit + 1, kDenseUnreached);
  dp[0] = 0;
  std::vector<std::uint64_t> taken;
  std::size_t best = 0;
  for (const EddJob& job : edd) {
    const Time deadline = job.deadline - shift;
    if (deadline < job.proc_time) continue;  // absent at this horizon
    const std::size_t row = taken.size();
    taken.resize(row + words, 0);
    cells += std::min(best + 1, limit);
    best = dense_relax_released(dp.data(), job.proc_time, deadline, releases, limit, best,
                                taken.data() + row);
  }
  std::vector<EddJob> picked(best);
  std::size_t j = best;
  std::size_t row = taken.size() / words;
  for (auto job = edd.rbegin(); job != edd.rend() && j >= 1; ++job) {
    if (job->deadline - shift < job->proc_time) continue;
    --row;
    if ((taken[row * words + j / 64] >> (j % 64)) & 1U) picked[--j] = *job;
  }
  MST_ASSERT(j == 0);
  return picked;
}

}  // namespace mst::oracle
