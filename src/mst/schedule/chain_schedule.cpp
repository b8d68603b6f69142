#include "mst/schedule/chain_schedule.hpp"

#include <algorithm>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

Time ChainTask::arrival(const Chain& chain) const {
  MST_REQUIRE(!emissions.empty(), "task has no communication vector");
  MST_REQUIRE(proc == emissions.size() - 1, "emission vector length must match destination");
  return emissions.back() + chain.comm(proc);
}

Time ChainTask::end(const Chain& chain) const { return start + chain.work(proc); }

Time ChainSchedule::makespan(const Workload& workload) const {
  return legs_makespan(legs_of(chain), tasks, workload);
}

std::vector<std::size_t> ChainSchedule::tasks_per_proc() const {
  std::vector<std::size_t> counts(chain.size(), 0);
  for (const ChainTask& t : tasks) {
    MST_REQUIRE(t.proc < chain.size(), "task destination outside chain");
    ++counts[t.proc];
  }
  return counts;
}

void ChainSchedule::shift(Time delta) {
  for (ChainTask& t : tasks) {
    t.start += delta;
    for (Time& e : t.emissions) e += delta;
  }
}

}  // namespace mst
