#include "mst/schedule/feasibility.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <sstream>

#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr const char* kNegative = "negative start or emission time";

/// Busy interval `[begin, begin + length)` of one hop of a task.
struct Interval {
  Time begin;
  Time length;
  std::size_t task;
};

/// `<what> violated by task <i>: [leg <leg>: ]<detail...>`.
template <class... Detail>
std::string violation(const char* what, std::size_t i, std::size_t leg, const Detail&... detail) {
  std::ostringstream os;
  os << what << " violated by task " << i << ": ";
  if (leg != kNone) os << "leg " << leg << ": ";
  (os << ... << detail);
  return os.str();
}

/// Reports every overlap of neighbouring intervals of one resource, named
/// `[leg <leg>: ]<label>[ <index>]`, sorting by begin (then task) only when
/// out of order.
void check_exclusive(std::span<Interval> bucket, std::size_t leg, const char* label,
                     std::size_t index, FeasibilityReport& report) {
  const auto before = [](const Interval& a, const Interval& b) {
    return a.begin < b.begin || (a.begin == b.begin && a.task < b.task);
  };
  if (!std::is_sorted(bucket.begin(), bucket.end(), before)) {
    std::sort(bucket.begin(), bucket.end(), before);
  }
  for (std::size_t k = 1; k < bucket.size(); ++k) {
    const Interval& prev = bucket[k - 1];
    const Interval& cur = bucket[k];
    if (prev.begin + prev.length <= cur.begin) continue;
    std::ostringstream os;
    if (leg != kNone) os << "leg " << leg << ": ";
    os << label;
    if (index != kNone) os << ' ' << index;
    os << ": interval [" << prev.begin << ", " << prev.begin + prev.length << ") of task "
       << prev.task << " overlaps [" << cur.begin << ", " << cur.begin + cur.length
       << ") of task " << cur.task;
    report.add_violation(os.str());
  }
}

/// Definition 1 over every hop of a chain (one leg, no message prefix) or
/// of a spider (per-leg messages prefixed `leg l: ` with leg-local task
/// indices, then the master's out-port with global ones).  Schedule task
/// `i` is workload task `i`; on a count mismatch every size is 1.
template <class Task>
FeasibilityReport check(std::span<const Chain> legs, const std::vector<Task>& tasks,
                        const Workload& workload) {
  constexpr bool kSpider = kSpiderTask<Task>;
  const std::size_t n = tasks.size();
  FeasibilityReport report;
  const bool aligned = workload.count() == n;
  if (!aligned) {
    std::ostringstream os;
    os << "workload mismatch: schedule holds " << n << " task(s), workload describes "
       << workload.count();
    report.add_violation(os.str());
  }
  const auto size_of = [&](std::size_t i) { return aligned ? workload.size_of(i) : Time{1}; };
  // Spider legs and release dates: first for spiders, last for chains.
  const auto check_legs_and_releases = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const Task& t = tasks[i];
      if (leg_of(t) >= legs.size()) {
        report.add_violation(violation("structure", i, kNone, "leg outside the spider"));
      } else if (aligned && workload.has_release_dates() && !t.emissions.empty() &&
                 t.emissions[0] < workload.release_of(i)) {
        report.add_violation(violation("release date", i, kNone, "master emission ",
                                       t.emissions[0], " precedes release date ",
                                       workload.release_of(i)));
      }
    }
  };
  if (kSpider) check_legs_and_releases();

  // Leg `l`'s processor `q` is node `v = first[l] + q + 1`, as in the ASAP engine:
  // bucket `v - 1`, the link into it `nodes + v - 1`; the master's is last.
  std::vector<std::size_t> first(legs.size() + 1, 0);
  for (std::size_t l = 0; l < legs.size(); ++l) first[l + 1] = first[l] + legs[l].size();
  const std::size_t nodes = first.back();
  const std::size_t master = 2 * nodes;

  // Counting sort of the hops by bucket, counts two slots up: once placed,
  // bucket `b` is `hops[at[b], at[b + 1])`, in task order.  A structurally
  // broken task takes no interval.
  std::vector<const char*> error(n, nullptr);
  std::vector<std::size_t> at(master + 3, 0);
  const auto joins_master = [&](std::size_t i) {
    return kSpider && error[i] != kNegative && !tasks[i].emissions.empty();
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks[i];
    const std::size_t l = leg_of(t);
    if (l >= legs.size()) continue;
    if (t.start < 0 ||
        std::any_of(t.emissions.begin(), t.emissions.end(), [](Time e) { return e < 0; })) {
      error[i] = kNegative;
    } else if (t.proc >= legs[l].size()) {
      error[i] = "destination outside the chain";
    } else if (t.emissions.size() != t.proc + 1) {
      error[i] = "emission vector length does not match destination";
    }
    if (joins_master(i)) ++at[master + 2];
    if (error[i] != nullptr) continue;
    ++at[first[l] + t.proc + 2];
    for (std::size_t k = 0; k <= t.proc; ++k) ++at[nodes + first[l] + k + 2];
  }
  std::partial_sum(at.begin(), at.end(), at.begin());
  std::vector<Interval> hops(at.back());
  const auto place = [&](std::size_t b, Time begin, Time length, std::size_t task) {
    hops[at[b + 1]++] = Interval{begin, length, task};
  };

  // Conditions (1) and (2) in task order, held in `pending` until the leg's
  // buckets are checked; `seen[l]` numbers the tasks within leg `l`.
  std::vector<std::size_t> seen(legs.size(), 0);
  std::vector<std::vector<std::string>> pending(legs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks[i];
    const std::size_t l = leg_of(t);
    if (l >= legs.size()) continue;
    const Chain& chain = legs[l];
    const std::size_t j = seen[l]++;
    const std::size_t leg = kSpider ? l : kNone;
    // A first emission holds the master's out-port for the first link's
    // latency, across all legs.
    if (joins_master(i)) place(master, t.emissions[0], size_of(i) * chain.comm(0), i);
    if (error[i] != nullptr) {
      pending[l].push_back(violation("structure", j, leg, error[i]));
      continue;
    }
    const Time s = size_of(i);
    place(first[l] + t.proc, t.start, s * chain.work(t.proc), j);
    for (std::size_t k = 0; k <= t.proc; ++k) {
      place(nodes + first[l] + k, t.emissions[k], s * chain.comm(k), j);
      if (k > 0 && t.emissions[k - 1] + s * chain.comm(k - 1) > t.emissions[k]) {
        pending[l].push_back(violation("condition (1)", j, leg, "C_", k - 1, "=",
                                       t.emissions[k - 1], " + c=", s * chain.comm(k - 1),
                                       " > C_", k, "=", t.emissions[k]));
      }
    }
    const Time arrival = t.emissions.back() + s * chain.comm(t.proc);
    if (arrival > t.start) {
      pending[l].push_back(
          violation("condition (2)", j, leg, "arrival ", arrival, " > start ", t.start));
    }
  }

  // Conditions (3) and (4) per processor and per link, then the master.
  const auto bucket = [&](std::size_t b) {
    return std::span<Interval>(hops.data() + at[b], hops.data() + at[b + 1]);
  };
  for (std::size_t l = 0; l < legs.size(); ++l) {
    const std::size_t leg = kSpider ? l : kNone;
    for (std::string& message : pending[l]) report.add_violation(std::move(message));
    for (std::size_t q = 0; q < legs[l].size(); ++q) {
      check_exclusive(bucket(first[l] + q), leg, "condition (3) on processor", q, report);
    }
    for (std::size_t k = 0; k < legs[l].size(); ++k) {
      check_exclusive(bucket(nodes + first[l] + k), leg, "condition (4) on link", k, report);
    }
  }
  check_exclusive(bucket(master), kNone, "master one-port (cross-leg)", kNone, report);
  if (!kSpider) check_legs_and_releases();
  return report;
}

}  // namespace

std::string FeasibilityReport::summary() const {
  if (ok()) return "feasible";
  std::ostringstream os;
  os << violations_.size() << " violation(s):";
  for (const std::string& v : violations_) os << "\n  - " << v;
  return os.str();
}

FeasibilityReport check_feasibility(const ChainSchedule& schedule) {
  return check_feasibility(schedule, Workload::identical(schedule.tasks.size()));
}

FeasibilityReport check_feasibility(const ChainSchedule& schedule, const Workload& workload) {
  return check(legs_of(schedule.chain), schedule.tasks, workload);
}

FeasibilityReport check_feasibility(const SpiderSchedule& schedule) {
  return check_feasibility(schedule, Workload::identical(schedule.tasks.size()));
}

FeasibilityReport check_feasibility(const SpiderSchedule& schedule, const Workload& workload) {
  return check(legs_of(schedule.spider), schedule.tasks, workload);
}

}  // namespace mst
