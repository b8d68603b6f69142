#include "mst/sim/static_replay.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>

#include "mst/common/assert.hpp"
#include "mst/schedule/legs.hpp"

namespace mst::sim {

namespace {

/// Records a conflict: `parts` streamed in order.
template <class... Parts>
void add_conflict(ReplayResult& result, const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  result.ok = false;
  result.conflicts.push_back(os.str());
}

/// A resource that admits one occupation at a time; claims must be issued
/// in non-decreasing time order (the replay sorts them).
class SerialResource {
 public:
  SerialResource(std::string name, ReplayResult* result)
      : name_(std::move(name)), result_(result) {}

  void claim(Time now, Time duration, std::size_t task) {
    if (now < busy_until_) {
      add_conflict(*result_, name_, ": task ", task, " claims at ", now,
                   " but resource is busy until ", busy_until_);
    }
    busy_until_ = std::max(busy_until_, now + duration);
  }

  /// A processor's claim by the execution of `task`, which must not start
  /// before the task has fully arrived.
  void execute(Time now, Time arrival, Time duration, std::size_t task) {
    if (now < arrival) {
      add_conflict(*result_, name_, ": task ", task, " starts at ", now, " before its arrival at ",
                   arrival);
    }
    claim(now, duration, task);
  }

 private:
  std::string name_;
  ReplayResult* result_;
  Time busy_until_ = 0;
};

/// One claim of `resource` at `time`: the master port or a link, or, with
/// the task's `arrival`, a processor executing it.
struct Claim {
  Time time;
  SerialResource* resource;
  Time duration;
  std::size_t task;
  std::optional<Time> arrival;
};

/// One replay for a chain (one leg, resources unprefixed, no master port)
/// and a spider (resources prefixed `leg l `).  Per task, negative times
/// (impossible operationally, so rejected like the analytic checker does)
/// and store-and-forward (a node cannot forward a task it has not fully
/// received, the replay twin of condition (1)) are checked at once; its
/// claims on the master port (spider), each link of the path and the
/// processor are queued, then applied in time order, ties in the order
/// they were queued.
template <class Task>
ReplayResult replay_legs(std::span<const Chain> legs, const std::vector<Task>& tasks) {
  ReplayResult result;
  std::vector<Claim> claims;

  SerialResource master_port("master port", &result);
  std::vector<std::vector<SerialResource>> links(legs.size());
  std::vector<std::vector<SerialResource>> procs(legs.size());
  for (std::size_t l = 0; l < legs.size(); ++l) {
    const std::string prefix = kSpiderTask<Task> ? "leg " + std::to_string(l) + " " : "";
    for (std::size_t k = 0; k < legs[l].size(); ++k) {
      links[l].emplace_back(prefix + "link " + std::to_string(k), &result);
      procs[l].emplace_back(prefix + "proc " + std::to_string(k), &result);
    }
  }

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    const std::size_t l = leg_of(t);
    MST_REQUIRE(l < legs.size(), "task leg outside the spider");
    const Chain& leg = legs[l];
    MST_REQUIRE(t.proc < leg.size() && t.emissions.size() == t.proc + 1,
                "malformed task placement");
    const CommVector& e = t.emissions;
    if (t.start < 0) add_conflict(result, "start of task ", i, " is negative (", t.start, ")");
    for (std::size_t k = 0; k <= t.proc; ++k) {
      if (e[k] < 0) add_conflict(result, "emission of task ", i, " is negative (", e[k], ")");
    }
    for (std::size_t k = 1; k <= t.proc; ++k) {
      if (e[k - 1] + leg.comm(k - 1) > e[k]) {
        add_conflict(result, "task ", i, " forwarded on link ", k, " at ", e[k],
                     " before its reception completes at ", e[k - 1] + leg.comm(k - 1));
      }
    }
    if constexpr (kSpiderTask<Task>) {
      // The first emission claims both the master port and the leg's link 0.
      claims.push_back({std::max<Time>(e[0], 0), &master_port, leg.comm(0), i, std::nullopt});
    }
    for (std::size_t k = 0; k <= t.proc; ++k) {
      claims.push_back({std::max<Time>(e[k], 0), &links[l][k], leg.comm(k), i, std::nullopt});
    }
    claims.push_back({std::max<Time>(t.start, 0), &procs[l][t.proc], leg.work(t.proc), i,
                      e.back() + leg.comm(t.proc)});
    result.makespan = std::max(result.makespan, t.start + leg.work(t.proc));
  }
  std::stable_sort(claims.begin(), claims.end(),
                   [](const Claim& a, const Claim& b) { return a.time < b.time; });
  for (const Claim& claim : claims) {
    if (claim.arrival) {
      claim.resource->execute(claim.time, *claim.arrival, claim.duration, claim.task);
    } else {
      claim.resource->claim(claim.time, claim.duration, claim.task);
    }
  }
  return result;
}

}  // namespace

ReplayResult replay(const ChainSchedule& schedule) {
  return replay_legs(legs_of(schedule.chain), schedule.tasks);
}

ReplayResult replay(const SpiderSchedule& schedule) {
  return replay_legs(legs_of(schedule.spider), schedule.tasks);
}

}  // namespace mst::sim
