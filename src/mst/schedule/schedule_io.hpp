#pragma once

#include <string>

#include "mst/schedule/chain_schedule.hpp"
#include "mst/schedule/spider_schedule.hpp"

/// \file schedule_io.hpp
/// Plain-text schedule serialization — the sibling of `platform/io.hpp`.
///
/// Makes schedules first-class artifacts: a planner can emit one, an
/// external tool (or a human) can inspect or edit it, and the validators
/// re-admit it.  Format (the lexical rules of `common/lexer.hpp`; the
/// embedded platform is read in place by `read_chain`/`read_spider`, so
/// every error names its line in the schedule file):
///
///     chain_schedule
///     chain <p>
///     <c_1> <w_1> ...
///     tasks <n>
///     <proc0based> <start> <emission_0> ... <emission_proc>
///     ...
///
///     spider_schedule
///     spider <legs>
///     leg <p> ...
///     tasks <n>
///     <leg> <proc0based> <start> <emission_0> ...
///
/// `parse_*` performs structural validation only (destination in range,
/// emission count matches, every hop's `C_k + c_k` and the end `T + w` fit
/// in `Time`); use `check_feasibility` / `sim::replay` for semantic
/// validation — keeping the two separate lets tooling load and report on
/// *infeasible* schedules.

namespace mst {

std::string write_schedule(const ChainSchedule& schedule);
std::string write_schedule(const SpiderSchedule& schedule);

ChainSchedule parse_chain_schedule(const std::string& text);
SpiderSchedule parse_spider_schedule(const std::string& text);

}  // namespace mst
