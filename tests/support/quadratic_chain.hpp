#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "mst/platform/chain.hpp"
#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/comm_vector.hpp"
#include "definition3.hpp"

/// \file quadratic_chain.hpp
/// Test oracle: the paper's Fig 3 backward construction exactly as written,
/// in `O(n·p²)`.  Every task builds all `p` candidate communication vectors
///
///     kC_k = min(o_k - w_k - c_k, h_k - c_k),  kC_j = min(kC_{j+1} - c_j, h_j - c_j)
///
/// and commits the greatest under Definition 3 (`precedes`).  The library's
/// kernel (`detail::backward_construction`) picks the same winner with an
/// O(1) comparison per destination; `tests/test_chain_kernel.cpp` checks
/// the two agree task for task.  This is the only copy of the quadratic
/// loop.

namespace mst::oracle {

/// The construction anchored at `horizon`, with the semantics of
/// `ChainScheduler::build_backward`: with `stop_on_negative` it stops
/// before a task whose first emission would be negative, otherwise it
/// places exactly `max_tasks` tasks.  Tasks are returned in first-link
/// emission order (the construction places them last to first).
inline ChainSchedule quadratic_backward(const Chain& chain, Time horizon, std::size_t max_tasks,
                                        bool stop_on_negative) {
  const std::size_t p = chain.size();
  std::vector<Time> hull(p, horizon);
  std::vector<Time> occupancy(p, horizon);
  CommVector candidate;
  CommVector best;
  ChainSchedule out;
  out.chain = chain;
  while (out.tasks.size() < max_tasks) {
    best.clear();
    for (std::size_t k1 = p; k1 >= 1; --k1) {
      const std::size_t k = k1 - 1;
      candidate.resize(k + 1);
      candidate[k] = std::min(occupancy[k] - chain.work(k) - chain.comm(k),
                              hull[k] - chain.comm(k));
      for (std::size_t j1 = k; j1 >= 1; --j1) {
        const std::size_t j = j1 - 1;
        candidate[j] = std::min(candidate[j + 1] - chain.comm(j), hull[j] - chain.comm(j));
      }
      if (best.empty() || precedes(best, candidate)) best = candidate;
    }
    if (stop_on_negative && best[0] < 0) break;
    const std::size_t dest = best.size() - 1;
    const Time start = occupancy[dest] - chain.work(dest);
    out.tasks.push_back(ChainTask{dest, start, best});
    occupancy[dest] = start;
    std::copy(best.begin(), best.end(), hull.begin());
  }
  std::reverse(out.tasks.begin(), out.tasks.end());
  return out;
}

}  // namespace mst::oracle
