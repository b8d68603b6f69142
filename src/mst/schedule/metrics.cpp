#include "mst/schedule/metrics.hpp"

#include <algorithm>

namespace mst {

namespace {

template <class Schedule>
double tasks_per_time(const Schedule& schedule) {
  const Time m = schedule.makespan();
  return m <= 0 ? 0.0 : static_cast<double>(schedule.num_tasks()) / static_cast<double>(m);
}

}  // namespace

ChainUtilization compute_utilization(const ChainSchedule& schedule) {
  ChainUtilization u;
  u.makespan = schedule.makespan();
  const std::size_t p = schedule.chain.size();
  u.proc_busy_fraction.assign(p, 0.0);
  u.link_busy_fraction.assign(p, 0.0);
  u.tasks_per_proc = schedule.tasks_per_proc();
  if (u.makespan <= 0) return u;

  std::vector<Time> proc_busy(p, 0);
  std::vector<Time> link_busy(p, 0);
  for (const ChainTask& t : schedule.tasks) {
    proc_busy[t.proc] += schedule.chain.work(t.proc);
    for (std::size_t k = 0; k <= t.proc; ++k) link_busy[k] += schedule.chain.comm(k);
  }
  for (std::size_t i = 0; i < p; ++i) {
    u.proc_busy_fraction[i] = static_cast<double>(proc_busy[i]) / static_cast<double>(u.makespan);
    u.link_busy_fraction[i] = static_cast<double>(link_busy[i]) / static_cast<double>(u.makespan);
  }
  return u;
}

std::vector<std::pair<Time, Time>> first_link_idle_gaps(const ChainSchedule& schedule) {
  std::vector<std::pair<Time, Time>> gaps;
  const Time c0 = schedule.chain.comm(0);
  std::vector<Time> emissions;
  for (const ChainTask& t : schedule.tasks) {
    if (!t.emissions.empty()) emissions.push_back(t.emissions.front());
  }
  std::sort(emissions.begin(), emissions.end());
  Time cursor = 0;
  for (Time e : emissions) {
    if (e > cursor) gaps.emplace_back(cursor, e);
    cursor = std::max(cursor, e + c0);
  }
  return gaps;
}

SpiderUtilization compute_utilization(const SpiderSchedule& schedule) {
  SpiderUtilization u;
  u.makespan = schedule.makespan();
  u.tasks_per_leg = schedule.tasks_per_leg();
  if (u.makespan <= 0) return u;
  Time busy = 0;
  for (const SpiderTask& t : schedule.tasks) {
    busy += schedule.spider.leg(t.leg).comm(0);
  }
  u.master_port_busy_fraction = static_cast<double>(busy) / static_cast<double>(u.makespan);
  return u;
}

double throughput(const ChainSchedule& schedule) { return tasks_per_time(schedule); }

double throughput(const SpiderSchedule& schedule) { return tasks_per_time(schedule); }

}  // namespace mst
