#include "mst/schedule/gantt.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

/// A single Gantt row: paints `[begin, end)` intervals labelled by task id.
class Row {
 public:
  Row(std::string name, Time horizon, Time scale)
      : name_(std::move(name)),
        scale_(scale),
        cells_(static_cast<std::size_t>((horizon + scale - 1) / std::max<Time>(scale, 1)), '.') {}

  void paint(Time begin, Time end, std::size_t task) {
    if (begin >= end) return;
    const char mark = static_cast<char>('0' + task % 10);
    const auto first = static_cast<std::size_t>(begin / scale_);
    const auto last = static_cast<std::size_t>((end - 1) / scale_);
    for (std::size_t c = first; c <= last && c < cells_.size(); ++c) cells_[c] = mark;
  }

  void print(std::ostream& os, std::size_t name_width) const {
    os << name_;
    os << std::string(name_width > name_.size() ? name_width - name_.size() : 0, ' ');
    os << " |";
    for (char c : cells_) os << c;
    os << "|\n";
  }

  [[nodiscard]] std::size_t name_size() const { return name_.size(); }

 private:
  std::string name_;
  Time scale_;
  std::string cells_;
};

/// One row per resource, each leg's links then its processors (a spider's
/// prefixed `leg l ` after the master-port row), every hop painted.
template <class Schedule>
std::string render(const Schedule& schedule, std::span<const Chain> legs, Time time_scale) {
  using Task = typename decltype(schedule.tasks)::value_type;
  MST_REQUIRE(time_scale >= 1, "time_scale must be >= 1");
  const Time horizon = std::max<Time>(schedule.makespan(), 1);

  std::vector<Row> rows;
  if (kSpiderTask<Task>) rows.emplace_back("master port", horizon, time_scale);
  std::vector<std::size_t> leg_base(legs.size());
  for (std::size_t l = 0; l < legs.size(); ++l) {
    leg_base[l] = rows.size();
    const std::string prefix = kSpiderTask<Task> ? "leg " + std::to_string(l) + " " : "";
    for (std::size_t k = 0; k < legs[l].size(); ++k) {
      rows.emplace_back(prefix + "link " + std::to_string(k), horizon, time_scale);
    }
    for (std::size_t q = 0; q < legs[l].size(); ++q) {
      rows.emplace_back(prefix + "proc " + std::to_string(q), horizon, time_scale);
    }
  }

  for (std::size_t i = 0; i < schedule.tasks.size(); ++i) {
    const Task& t = schedule.tasks[i];
    const Chain& leg = legs[leg_of(t)];
    const std::size_t base = leg_base[leg_of(t)];
    if (kSpiderTask<Task> && !t.emissions.empty()) {
      rows[0].paint(t.emissions.front(), t.emissions.front() + leg.comm(0), i);
    }
    for (std::size_t k = 0; k < t.emissions.size(); ++k) {
      rows[base + k].paint(t.emissions[k], t.emissions[k] + leg.comm(k), i);
    }
    rows[base + leg.size() + t.proc].paint(t.start, t.start + leg.work(t.proc), i);
  }

  std::size_t width = 0;
  for (const Row& r : rows) width = std::max(width, r.name_size());
  std::ostringstream os;
  for (const Row& r : rows) r.print(os, width);
  return os.str();
}

}  // namespace

std::string render_gantt(const ChainSchedule& schedule, Time time_scale) {
  return render(schedule, legs_of(schedule.chain), time_scale);
}

std::string render_gantt(const SpiderSchedule& schedule, Time time_scale) {
  return render(schedule, legs_of(schedule.spider), time_scale);
}

}  // namespace mst
