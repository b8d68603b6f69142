#pragma once

#include <cstddef>

#include "mst/core/spider_scheduler.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/schedule/spider_schedule.hpp"
#include "mst/workload/workload.hpp"

/// \file fork_scheduler.hpp
/// A fork (§6 of the paper, after Beaumont et al., IPDPS 2002) is the
/// spider whose legs each hold one processor, and the library solves it as
/// that spider: `Spider::from_fork` (or `assign_fork` in place), then the
/// `SpiderScheduler` forms.  This header keeps only the fork-typed calls the
/// repo benchmark's traced pass makes, each forwarding to the spider.  It
/// stays until a change may edit the benchmark; new code calls the spider.

namespace mst {

/// The benchmark's counting buffers: the unit-leg spider and its count scratch.
struct ForkCountScratch {
  Spider spider;
  SpiderCountScratch count;
};

class ForkScheduler {
 public:
  static SpiderSchedule schedule(const Fork& fork, std::size_t n) {
    return SpiderScheduler::schedule(Spider::from_fork(fork), n);
  }

  static SpiderSchedule schedule(const Fork& fork, const Workload& workload) {
    return SpiderScheduler::schedule(Spider::from_fork(fork), workload);
  }

  static std::size_t count_within(const Fork& fork, Time t_lim, std::size_t cap,
                                  ForkCountScratch& scratch) {
    scratch.spider.assign_fork(fork);
    return SpiderScheduler::count_within(scratch.spider, t_lim, cap, scratch.count);
  }

  static std::size_t count_within(const Fork& fork, Time t_lim, const Workload& workload,
                                  std::size_t cap, ForkCountScratch& scratch) {
    scratch.spider.assign_fork(fork);
    return SpiderScheduler::count_within(scratch.spider, t_lim, workload, cap, scratch.count);
  }
};

}  // namespace mst
