#include "mst/schedule/spider_schedule.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

Time SpiderTask::arrival(const Spider& spider) const {
  MST_REQUIRE(!emissions.empty(), "task has no communication vector");
  MST_REQUIRE(proc == emissions.size() - 1, "emission vector length must match destination");
  return emissions.back() + spider.leg(leg).comm(proc);
}

Time SpiderTask::end(const Spider& spider) const { return start + spider.leg(leg).work(proc); }

Time SpiderSchedule::makespan(const Workload& workload) const {
  return legs_makespan(legs_of(spider), tasks, workload);
}

std::vector<std::size_t> SpiderSchedule::tasks_per_leg() const {
  std::vector<std::size_t> counts(spider.num_legs(), 0);
  for (const SpiderTask& t : tasks) {
    MST_REQUIRE(t.leg < spider.num_legs(), "task leg outside spider");
    ++counts[t.leg];
  }
  return counts;
}

Time SpiderSchedule::normalize() {
  if (tasks.empty()) return 0;
  Time first = kTimeInfinity;
  for (const SpiderTask& t : tasks) {
    first = std::min(first, t.start);
    if (!t.emissions.empty()) first = std::min(first, t.emissions.front());
  }
  for (SpiderTask& t : tasks) {
    t.start -= first;
    for (Time& e : t.emissions) e -= first;
  }
  return -first;
}

}  // namespace mst
