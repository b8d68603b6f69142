#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "mst/core/kernels.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file full_range_release_search.hpp
/// Test oracle: the release-dated spider (and fork, as its unit-leg spider)
/// makespan search over its whole range, the form the library's bracketed
/// search replaced.  It builds the node instance once at the top — every
/// task pipelined on the best single first processor, shifted past the last
/// release — bisects `[0, top]` with the positional-release DP probes and
/// selects at the optimum.  It reads no lower bound and no identical-task
/// optimum, so the bracket `[LB, UB]` the library searches
/// (`SpiderCountScratch::floor`/`top`) can be checked against it:
/// `tests/test_search_range.cpp` requires the same horizon, the same
/// schedule and `LB <= T* <= UB`.

namespace mst::oracle {

/// The top of the whole range: the best single-first-processor pipeline of
/// `n` tasks past the last release (overflowing pipelines skipped).
inline Time full_range_top(const Spider& spider, const Workload& workload) {
  const auto n = static_cast<Time>(workload.count());
  Time top = std::numeric_limits<Time>::max();
  for (const Chain& leg : spider.legs()) {
    const Processor& first = leg.proc(0);
    Time span = 0;
    const bool overflow = __builtin_mul_overflow(std::max(first.comm, first.work), n - 1, &span) ||
                          __builtin_add_overflow(span, first.comm, &span) ||
                          __builtin_add_overflow(span, first.work, &span) ||
                          __builtin_add_overflow(span, workload.last_release(), &span);
    if (!overflow) top = std::min(top, span);
  }
  return top;
}

/// The optimal horizon of `workload` (release-dated, uniform sizes) on
/// `spider`: the least `T` in `[0, top]` at which the DP count over the
/// instance built at the top reaches `n`.
inline Time full_range_release_horizon(const Spider& spider, const Workload& workload,
                                       SpiderCountScratch& scratch) {
  const std::size_t n = workload.count();
  const Time top = full_range_top(spider, workload);
  SpiderScheduler::build_instance(spider, top, workload, n, scratch);
  return detail::min_horizon(0, top, [&](Time t) {
    return SpiderScheduler::probe_instance(t, workload, n, scratch) >= n;
  });
}

/// The full-range search's schedule: the selection at its horizon, which
/// by the shift lemma equals the one from the instance built at the top.
inline SpiderSchedule full_range_release_schedule(const Spider& spider, const Workload& workload,
                                                  Time* horizon = nullptr) {
  SpiderSolveScratch scratch;
  const Time optimum = full_range_release_horizon(spider, workload, scratch.count);
  if (horizon != nullptr) *horizon = optimum;
  SpiderSchedule out;
  SpiderScheduler::schedule_within_into(spider, optimum, workload, workload.count(), scratch, out);
  return out;
}

}  // namespace mst::oracle
