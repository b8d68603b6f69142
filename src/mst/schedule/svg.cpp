#include "mst/schedule/svg.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

/// Qualitative palette (cycled); chosen for adjacent-index contrast.
const char* kPalette[] = {"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
                          "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac"};

class SvgBuilder {
 public:
  SvgBuilder(std::vector<std::string> lanes, Time horizon, const SvgOptions& opt)
      : lanes_(std::move(lanes)), horizon_(std::max<Time>(horizon, 1)), opt_(opt) {}

  void box(std::size_t lane, Time begin, Time end, std::size_t task, bool is_comm) {
    MST_ASSERT(lane < lanes_.size());
    if (begin >= end) return;
    std::ostringstream os;
    const double x = kLabelWidth + static_cast<double>(begin) * opt_.px_per_time;
    const double w = static_cast<double>(end - begin) * opt_.px_per_time;
    const double y = kHeader + static_cast<double>(lane) * opt_.lane_height + 2.0;
    const double h = opt_.lane_height - 4.0;
    const char* fill = kPalette[task % (sizeof(kPalette) / sizeof(kPalette[0]))];
    os << "  <rect x='" << x << "' y='" << y << "' width='" << w << "' height='" << h
       << "' fill='" << fill << "' fill-opacity='" << (is_comm ? "0.55" : "0.95")
       << "' stroke='#333' stroke-width='0.5'/>\n";
    if (opt_.show_labels && w >= 14.0) {
      os << "  <text x='" << x + w / 2 << "' y='" << y + h / 2 + 4
         << "' font-size='11' text-anchor='middle' font-family='sans-serif'>" << task
         << "</text>\n";
    }
    body_ += os.str();
  }

  [[nodiscard]] std::string finish() const {
    const double width = kLabelWidth + static_cast<double>(horizon_) * opt_.px_per_time + 10.0;
    const double height = kHeader + static_cast<double>(lanes_.size()) * opt_.lane_height + 10.0;
    std::ostringstream os;
    os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width << "' height='" << height
       << "'>\n";
    os << "  <rect x='0' y='0' width='" << width << "' height='" << height
       << "' fill='white'/>\n";
    // Time ticks.
    const Time tick = std::max<Time>(1, horizon_ / 20);
    for (Time t = 0; t <= horizon_; t += tick) {
      const double x = kLabelWidth + static_cast<double>(t) * opt_.px_per_time;
      os << "  <line x1='" << x << "' y1='" << kHeader << "' x2='" << x << "' y2='"
         << kHeader + static_cast<double>(lanes_.size()) * opt_.lane_height
         << "' stroke='#ddd' stroke-width='1'/>\n";
      os << "  <text x='" << x << "' y='" << kHeader - 6
         << "' font-size='10' text-anchor='middle' font-family='sans-serif'>" << t
         << "</text>\n";
    }
    // Lane labels and separators.
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      const double y = kHeader + static_cast<double>(i) * opt_.lane_height;
      os << "  <text x='4' y='" << y + opt_.lane_height / 2 + 4
         << "' font-size='11' font-family='sans-serif'>" << lanes_[i] << "</text>\n";
      os << "  <line x1='0' y1='" << y << "' x2='" << width << "' y2='" << y
         << "' stroke='#eee' stroke-width='1'/>\n";
    }
    os << body_;
    os << "</svg>\n";
    return os.str();
  }

 private:
  static constexpr double kLabelWidth = 110.0;
  static constexpr double kHeader = 24.0;
  std::vector<std::string> lanes_;
  Time horizon_;
  SvgOptions opt_;
  std::string body_;
};

/// One lane per resource, each leg's links then its processors (a spider's
/// prefixed `L<l> ` after the master-port lane), one box per hop.
template <class Task>
std::string render(std::span<const Chain> legs, const std::vector<Task>& tasks, Time makespan,
                   const SvgOptions& options) {
  std::vector<std::string> lanes;
  if (kSpiderTask<Task>) lanes.push_back("master port");
  std::vector<std::size_t> leg_base(legs.size());
  for (std::size_t l = 0; l < legs.size(); ++l) {
    leg_base[l] = lanes.size();
    const std::string prefix = kSpiderTask<Task> ? "L" + std::to_string(l) + " " : "";
    for (std::size_t k = 0; k < legs[l].size(); ++k) {
      lanes.push_back(prefix + "link " + std::to_string(k));
    }
    for (std::size_t q = 0; q < legs[l].size(); ++q) {
      lanes.push_back(prefix + "proc " + std::to_string(q));
    }
  }

  SvgBuilder svg(std::move(lanes), makespan, options);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    const Chain& leg = legs[leg_of(t)];
    const std::size_t base = leg_base[leg_of(t)];
    if (kSpiderTask<Task> && !t.emissions.empty()) {
      svg.box(0, t.emissions.front(), t.emissions.front() + leg.comm(0), i, /*is_comm=*/true);
    }
    for (std::size_t k = 0; k < t.emissions.size(); ++k) {
      svg.box(base + k, t.emissions[k], t.emissions[k] + leg.comm(k), i, /*is_comm=*/true);
    }
    svg.box(base + leg.size() + t.proc, t.start, t.start + leg.work(t.proc), i,
            /*is_comm=*/false);
  }
  return svg.finish();
}

}  // namespace

std::string render_svg(const ChainSchedule& schedule, const SvgOptions& options) {
  return render(legs_of(schedule.chain), schedule.tasks, schedule.makespan(), options);
}

std::string render_svg(const SpiderSchedule& schedule, const SvgOptions& options) {
  return render(legs_of(schedule.spider), schedule.tasks, schedule.makespan(), options);
}

}  // namespace mst
