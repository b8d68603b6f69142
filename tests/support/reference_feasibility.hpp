#pragma once

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/feasibility.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file reference_feasibility.hpp
/// Test oracle: the Definition 1 checker as it stood before the one-pass
/// checker replaced it, kept verbatim apart from one change.  Per
/// processor and per link it scans every task (`O(p·n)`), and a spider
/// projects each leg's tasks onto `ChainTask` copies and runs the chain
/// checker per leg.  The one change is `std::stable_sort` in
/// `check_exclusive`, which pins the order of equal begins to task order
/// (`std::sort` left it unspecified above 16 intervals).
/// `tests/test_feasibility_differential.cpp` checks that the library's
/// `check_feasibility` reports the same violations, in the same order.
/// It predates the negative-time check, so it is only compared on
/// schedules whose times are all non-negative.

namespace mst::oracle {

inline std::string fmt1(const char* what, std::size_t i, const std::string& detail) {
  std::ostringstream os;
  os << what << " violated by task " << i << ": " << detail;
  return os.str();
}

/// Checks that half-open busy intervals `[t, t+len)` taken by the given
/// (owner, time) pairs never overlap; reports via `label`.
struct Interval {
  Time begin;
  Time length;
  std::size_t task;
};

inline void check_exclusive(std::vector<Interval> intervals, const char* label,
                     FeasibilityReport& report) {
  std::stable_sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  for (std::size_t k = 1; k < intervals.size(); ++k) {
    const Interval& prev = intervals[k - 1];
    const Interval& cur = intervals[k];
    if (prev.begin + prev.length > cur.begin) {
      std::ostringstream os;
      os << label << ": interval [" << prev.begin << ", " << prev.begin + prev.length
         << ") of task " << prev.task << " overlaps [" << cur.begin << ", "
         << cur.begin + cur.length << ") of task " << cur.task;
      report.add_violation(os.str());
    }
  }
}

/// Workload/task-count consistency shared by every workload-aware check.
/// Returns false when the counts diverge (per-task checks then use the
/// uniform defaults to avoid out-of-range lookups).
inline bool check_workload_count(std::size_t tasks, const Workload& workload,
                          FeasibilityReport& report) {
  if (workload.count() == tasks) return true;
  std::ostringstream os;
  os << "workload mismatch: schedule holds " << tasks << " task(s), workload describes "
     << workload.count();
  report.add_violation(os.str());
  return false;
}

/// Release-date gate: the task's master emission must not start early.
inline void check_release(Time emission, Time release, std::size_t i, FeasibilityReport& report) {
  if (emission < release) {
    std::ostringstream os;
    os << "master emission " << emission << " precedes release date " << release;
    report.add_violation(fmt1("release date", i, os.str()));
  }
}

/// Shared core for the per-leg chain conditions; `leg_label` annotates
/// messages when checking inside a spider.  `sizes` scales task `i`'s
/// communication and execution occupancy (Definition 1 with per-task
/// durations; all-1 sizes reproduce the identical checks verbatim).
inline void check_chain_conditions(const Chain& chain, const std::vector<const ChainTask*>& tasks,
                            const std::vector<Time>& sizes, const std::string& leg_label,
                            FeasibilityReport& report) {
  const std::size_t p = chain.size();

  // Structural checks first; skip malformed tasks in the pairwise phase.
  std::vector<bool> well_formed(tasks.size(), true);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ChainTask& t = *tasks[i];
    const Time s = sizes[i];
    if (t.proc >= p) {
      report.add_violation(fmt1("structure", i, leg_label + "destination outside the chain"));
      well_formed[i] = false;
      continue;
    }
    if (t.emissions.size() != t.proc + 1) {
      report.add_violation(
          fmt1("structure", i, leg_label + "emission vector length does not match destination"));
      well_formed[i] = false;
      continue;
    }
    // Condition (1): store-and-forward along the path.
    for (std::size_t k = 1; k <= t.proc; ++k) {
      if (t.emissions[k - 1] + s * chain.comm(k - 1) > t.emissions[k]) {
        std::ostringstream os;
        os << leg_label << "C_" << k - 1 << "=" << t.emissions[k - 1]
           << " + c=" << s * chain.comm(k - 1) << " > C_" << k << "=" << t.emissions[k];
        report.add_violation(fmt1("condition (1)", i, os.str()));
      }
    }
    // Condition (2): full reception before execution.
    if (t.emissions.back() + s * chain.comm(t.proc) > t.start) {
      std::ostringstream os;
      os << leg_label << "arrival " << t.emissions.back() + s * chain.comm(t.proc) << " > start "
         << t.start;
      report.add_violation(fmt1("condition (2)", i, os.str()));
    }
  }

  // Condition (3): processor exclusivity.
  for (std::size_t q = 0; q < p; ++q) {
    std::vector<Interval> busy;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (well_formed[i] && tasks[i]->proc == q) {
        busy.push_back({tasks[i]->start, sizes[i] * chain.work(q), i});
      }
    }
    std::ostringstream label;
    label << leg_label << "condition (3) on processor " << q;
    check_exclusive(std::move(busy), label.str().c_str(), report);
  }

  // Condition (4): link exclusivity.
  for (std::size_t k = 0; k < p; ++k) {
    std::vector<Interval> busy;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (well_formed[i] && tasks[i]->proc >= k) {
        busy.push_back({tasks[i]->emissions[k], sizes[i] * chain.comm(k), i});
      }
    }
    std::ostringstream label;
    label << leg_label << "condition (4) on link " << k;
    check_exclusive(std::move(busy), label.str().c_str(), report);
  }
}

/// Per-task sizes of a workload aligned to `count` tasks (all 1 when the
/// workload is uniform or mismatched).
inline std::vector<Time> aligned_sizes(std::size_t count, const Workload& workload, bool aligned) {
  std::vector<Time> sizes(count, 1);
  if (aligned && !workload.uniform_sizes()) {
    for (std::size_t i = 0; i < count; ++i) sizes[i] = workload.size_of(i);
  }
  return sizes;
}

inline FeasibilityReport check_feasibility(const ChainSchedule& schedule, const Workload& workload) {
  FeasibilityReport report;
  const bool aligned = check_workload_count(schedule.tasks.size(), workload, report);
  const std::vector<Time> sizes = aligned_sizes(schedule.tasks.size(), workload, aligned);
  std::vector<const ChainTask*> ptrs;
  ptrs.reserve(schedule.tasks.size());
  for (const ChainTask& t : schedule.tasks) ptrs.push_back(&t);
  check_chain_conditions(schedule.chain, ptrs, sizes, "", report);
  if (aligned && workload.has_release_dates()) {
    for (std::size_t i = 0; i < schedule.tasks.size(); ++i) {
      if (!schedule.tasks[i].emissions.empty()) {
        check_release(schedule.tasks[i].emissions.front(), workload.release_of(i), i, report);
      }
    }
  }
  return report;
}

inline FeasibilityReport check_feasibility(const SpiderSchedule& schedule, const Workload& workload) {
  FeasibilityReport report;
  const Spider& spider = schedule.spider;
  const bool aligned = check_workload_count(schedule.tasks.size(), workload, report);
  const std::vector<Time> sizes = aligned_sizes(schedule.tasks.size(), workload, aligned);

  // Per-leg chain conditions.  Reuse the chain checker by projecting the
  // spider tasks of each leg onto ChainTask views (and their sizes along).
  std::vector<std::vector<ChainTask>> leg_tasks(spider.num_legs());
  std::vector<std::vector<Time>> leg_sizes(spider.num_legs());
  std::vector<Interval> master_port;
  for (std::size_t i = 0; i < schedule.tasks.size(); ++i) {
    const SpiderTask& t = schedule.tasks[i];
    if (t.leg >= spider.num_legs()) {
      report.add_violation(fmt1("structure", i, "leg outside the spider"));
      continue;
    }
    leg_tasks[t.leg].push_back(ChainTask{t.proc, t.start, t.emissions});
    leg_sizes[t.leg].push_back(sizes[i]);
    if (!t.emissions.empty()) {
      // Master one-port: the emission on the leg's first link occupies the
      // master for that link's latency.
      master_port.push_back({t.emissions.front(), sizes[i] * spider.leg(t.leg).comm(0), i});
      if (aligned && workload.has_release_dates()) {
        check_release(t.emissions.front(), workload.release_of(i), i, report);
      }
    }
  }
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    std::vector<const ChainTask*> ptrs;
    ptrs.reserve(leg_tasks[l].size());
    for (const ChainTask& t : leg_tasks[l]) ptrs.push_back(&t);
    std::ostringstream label;
    label << "leg " << l << ": ";
    check_chain_conditions(spider.leg(l), ptrs, leg_sizes[l], label.str(), report);
  }
  check_exclusive(std::move(master_port), "master one-port (cross-leg)", report);
  return report;
}

}  // namespace mst::oracle
