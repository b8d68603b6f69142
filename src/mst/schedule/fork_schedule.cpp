#include "mst/schedule/fork_schedule.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"

namespace mst {

Time ForkSchedule::makespan(const Workload& workload) const {
  Time last = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    last = std::max(last, tasks[i].start + workload.size_of(i) * fork.slave(tasks[i].slave).work);
  }
  return last;
}

std::vector<std::size_t> ForkSchedule::tasks_per_slave() const {
  std::vector<std::size_t> counts(fork.size(), 0);
  for (const ForkTask& t : tasks) {
    MST_REQUIRE(t.slave < fork.size(), "task destination outside fork");
    ++counts[t.slave];
  }
  return counts;
}

}  // namespace mst
