#include "mst/schedule/json.hpp"

#include <sstream>

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
  std::ostringstream os;
  os << "{\"platform\":" << to_json(schedule.chain) << ",\"makespan\":" << schedule.makespan()
     << ",\"tasks\":[";
  for (std::size_t i = 0; i < schedule.tasks.size(); ++i) {
    const ChainTask& t = schedule.tasks[i];
    if (i) os << ',';
    os << "{\"proc\":" << t.proc << ",\"start\":" << t.start << ",\"emissions\":";
    write_times(os, t.emissions);
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string to_json(const SpiderSchedule& schedule) {
  std::ostringstream os;
  os << "{\"platform\":" << to_json(schedule.spider) << ",\"makespan\":" << schedule.makespan()
     << ",\"tasks\":[";
  for (std::size_t i = 0; i < schedule.tasks.size(); ++i) {
    const SpiderTask& t = schedule.tasks[i];
    if (i) os << ',';
    os << "{\"leg\":" << t.leg << ",\"proc\":" << t.proc << ",\"start\":" << t.start
       << ",\"emissions\":";
    write_times(os, t.emissions);
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace mst
