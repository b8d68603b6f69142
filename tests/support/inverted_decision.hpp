#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>

#include "mst/api/registry.hpp"
#include "mst/workload/workload.hpp"

/// \file inverted_decision.hpp
/// Test oracle: the decision form answered by inverting the makespan form,
/// as the registry's adapter does for entries without a native one.  The
/// largest task count whose `Registry::solve` makespan fits the window is
/// found by exponential growth, then bisection; with a pool
/// (`SolveOptions::workload`) the probes are its canonical prefixes.  Exact
/// whenever the makespan is monotone in the task count.  The prefix-stable
/// engine baselines answer in one deadline-stopped run instead;
/// `tests/test_decision_form.cpp` checks that both agree.

namespace mst::oracle {

/// `tasks`, `makespan` and `optimal` of `algorithm`'s decision for
/// `deadline`, as the makespan inversion finds them (no payload).
inline api::DecisionResult inverted_decision(const api::Platform& platform,
                                             std::string_view algorithm, Time deadline,
                                             const api::SolveOptions& options = {}) {
  api::SolveOptions probe = options;
  probe.materialize = false;
  probe.metrics = nullptr;
  const Workload* pool = options.workload.get();
  std::size_t cap = std::max<std::size_t>(1, options.cap);
  if (pool != nullptr) cap = std::min(cap, pool->count());
  const auto makespan = [&](std::size_t k) {
    return api::registry()
        .solve(platform, algorithm, pool != nullptr ? pool->prefix(k) : Workload::identical(k),
               probe)
        .makespan;
  };

  api::DecisionResult out;
  std::size_t lo = 0;  // largest count known to fit
  Time lo_makespan = 0;
  if (deadline > 0 && cap > 0 && makespan(1) <= deadline) {
    lo = 1;
    lo_makespan = makespan(1);
    std::size_t hi = 1;  // first count known not to fit, once lo < hi
    while (lo == hi && hi < cap) {
      const std::size_t next = hi > cap / 2 ? cap : hi * 2;
      const Time m = makespan(next);
      if (m <= deadline) {
        lo = next;
        lo_makespan = m;
      }
      hi = next;
    }
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const Time m = makespan(mid);
      if (m <= deadline) {
        lo = mid;
        lo_makespan = m;
      } else {
        hi = mid;
      }
    }
  }
  out.tasks = lo;
  out.makespan = lo_makespan;
  // Stamped as the registry stamps it: a count that reached the cap short
  // of a finite pool's end proves nothing.
  const bool truncated = lo >= cap && (pool == nullptr || lo < pool->count());
  const api::AlgorithmInfo* info = api::registry().info(api::kind_of(platform), algorithm);
  out.optimal = info != nullptr && info->optimal && !truncated;
  return out;
}

}  // namespace mst::oracle
