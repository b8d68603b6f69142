#include "mst/schedule/json.hpp"

#include <sstream>

#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

void write_procs(std::ostringstream& os, const std::vector<Processor>& procs) {
  os << '[';
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (i) os << ',';
    os << "{\"comm\":" << procs[i].comm << ",\"work\":" << procs[i].work << '}';
  }
  os << ']';
}

void write_times(std::ostringstream& os, const CommVector& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << ']';
}

/// `{"platform":…,"makespan":…,"tasks":[…]}`, a spider's tasks leading
/// with their `leg`.
template <class Task>
std::string schedule_json(const std::string& platform, Time makespan,
                          const std::vector<Task>& tasks) {
  std::ostringstream os;
  os << "{\"platform\":" << platform << ",\"makespan\":" << makespan << ",\"tasks\":[";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    if (i) os << ',';
    os << '{';
    if constexpr (kSpiderTask<Task>) os << "\"leg\":" << t.leg << ',';
    os << "\"proc\":" << t.proc << ",\"start\":" << t.start << ",\"emissions\":";
    write_times(os, t.emissions);
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace

std::string to_json(const Chain& chain) {
  std::ostringstream os;
  os << "{\"kind\":\"chain\",\"procs\":";
  write_procs(os, chain.procs());
  os << '}';
  return os.str();
}

std::string to_json(const Fork& fork) {
  std::ostringstream os;
  os << "{\"kind\":\"fork\",\"slaves\":";
  write_procs(os, fork.slaves());
  os << '}';
  return os.str();
}

std::string to_json(const Spider& spider) {
  std::ostringstream os;
  os << "{\"kind\":\"spider\",\"legs\":[";
  for (std::size_t l = 0; l < spider.num_legs(); ++l) {
    if (l) os << ',';
    write_procs(os, spider.leg(l).procs());
  }
  os << "]}";
  return os.str();
}

std::string to_json(const ChainSchedule& schedule) {
  return schedule_json(to_json(schedule.chain), schedule.makespan(), schedule.tasks);
}

std::string to_json(const SpiderSchedule& schedule) {
  return schedule_json(to_json(schedule.spider), schedule.makespan(), schedule.tasks);
}

}  // namespace mst
