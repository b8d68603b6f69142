#pragma once

#include <string>
#include <vector>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file static_replay.hpp
/// Replaying a *static* schedule.
///
/// Every emission and execution claims its resource at exactly the time the
/// schedule prescribes.  All claims are known up front, so the replay sorts
/// them by time (ties in the order they were queued) and applies them in
/// one pass, with no event loop.  It tracks each resource's busy horizon and
/// records a conflict whenever a claim meets a busy resource or an execution starts
/// before its task fully arrived.  This is an independent, operational
/// re-implementation of the Definition 1 checker: the test suite requires
/// both to agree on every schedule, and the realized makespan to equal the
/// analytic one.  Like the checker, one body walks the legs: a chain is the
/// one leg, its resources unprefixed (`link k`, `proc q`) and without the
/// spider's `master port`, which a task claims before its leg's links.

namespace mst::sim {

struct ReplayResult {
  bool ok = true;
  Time makespan = 0;                   ///< realized completion of the last task
  std::vector<std::string> conflicts;  ///< empty iff `ok`
};

ReplayResult replay(const ChainSchedule& schedule);
ReplayResult replay(const SpiderSchedule& schedule);

}  // namespace mst::sim
