#pragma once

#include <string>
#include <vector>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file feasibility.hpp
/// Executable Definition 1: the paper states four feasibility conditions and
/// leaves the proof that the algorithm satisfies them "to the reader".  This
/// checker *is* that reader — every schedule produced anywhere in the library
/// is run through it in the test suite.
///
/// Conditions (paper numbering, 1-based links):
///  (1) store-and-forward: `C^i_{k-1} + c_{k-1} <= C^i_k` — a node cannot
///      re-emit a task before fully receiving it;
///  (2) reception before execution: `C^i_{P(i)} + c_{P(i)} <= T(i)`;
///  (3) one task at a time per processor: two tasks on the same processor
///      have `|T(i) - T(j)| >= w_{P(i)}`;
///  (4) one communication at a time per link: `|C^i_k - C^j_k| >= c_k`.
///
/// For spiders (§6) the master also sends one task at a time *across all
/// legs*.  A fork schedule is its unit-leg spider's (`Spider::from_fork`;
/// slave `i` is leg `i`), so the spider checker is also the fork checker.
///
/// One pass checks them all, a chain being a one-leg spider: a counting
/// sort puts every hop in its resource's bucket (per processor, per link,
/// and a spider master's out-port) in `O(Σ hops + p)`, in task order; an
/// unsorted bucket is sorted by begin, ties in task order.  A negative time
/// is a structure violation, and such a task takes no interval.

namespace mst {

/// Result of a feasibility check: `ok()` plus a human-readable list of every
/// violated constraint (all violations are collected, not just the first).
class FeasibilityReport {
 public:
  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }
  [[nodiscard]] std::string summary() const;

  void add_violation(std::string message) { violations_.push_back(std::move(message)); }

 private:
  std::vector<std::string> violations_;
};

/// Checks conditions (1)-(4) plus structural sanity (non-negative times,
/// destination inside the chain, vector length matches destination).
FeasibilityReport check_feasibility(const ChainSchedule& schedule);

/// Chain conditions within every leg + the cross-leg master one-port rule.
FeasibilityReport check_feasibility(const SpiderSchedule& schedule);

/// Workload-aware forms: schedule task `i` is workload task `i` (canonical
/// order — every producer in the library dispatches in that order).  All
/// occupancy windows scale by the task's size, and each task's master
/// emission must start at or after its release date.  A task-count mismatch
/// between schedule and workload is itself a violation.  With
/// `Workload::identical(n)` these reduce exactly to the unchecked-workload
/// forms above.
FeasibilityReport check_feasibility(const ChainSchedule& schedule, const Workload& workload);
FeasibilityReport check_feasibility(const SpiderSchedule& schedule, const Workload& workload);

}  // namespace mst
