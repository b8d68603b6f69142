#pragma once

#include <string>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file json.hpp
/// JSON serialization of platforms and schedules for downstream analysis
/// (plotting scripts, external validators).  Self-contained writer — no
/// third-party JSON dependency; output is stable and minified enough to diff.

namespace mst {

std::string to_json(const Chain& chain);
std::string to_json(const Fork& fork);
std::string to_json(const Spider& spider);

/// Schedule dumps embed the platform and the makespan and list every task
/// as `{"proc":…, "start":…, "emissions":[…]}`, one body for both: a
/// spider's tasks lead with `"leg":…`, a chain's (the one leg) do not.
std::string to_json(const ChainSchedule& schedule);
std::string to_json(const SpiderSchedule& schedule);

}  // namespace mst
