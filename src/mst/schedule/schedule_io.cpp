#include "mst/schedule/schedule_io.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/common/lexer.hpp"
#include "mst/platform/io.hpp"
#include "mst/schedule/legs.hpp"

namespace mst {

namespace {

/// The task type of a `ChainSchedule` or a `SpiderSchedule`.
template <class Schedule>
using TaskOf = typename decltype(Schedule::tasks)::value_type;

/// Writes either schedule kind: a chain is leg 0, and its task lines carry
/// no `leg` column.
template <class Schedule>
std::string write_any(const Schedule& schedule) {
  constexpr bool kSpider = kSpiderTask<TaskOf<Schedule>>;
  std::ostringstream os;
  if constexpr (kSpider) {
    os << "spider_schedule\n" << write_spider(schedule.spider);
  } else {
    os << "chain_schedule\n" << write_chain(schedule.chain);
  }
  os << "tasks " << schedule.tasks.size() << '\n';
  os << (kSpider ? "# leg proc start emissions...\n" : "# proc start emissions...\n");
  for (const auto& t : schedule.tasks) {
    if constexpr (kSpider) os << t.leg << ' ';
    os << t.proc << ' ' << t.start;
    for (Time e : t.emissions) os << ' ' << e;
    os << '\n';
  }
  return os.str();
}

/// Reads either schedule kind, its embedded platform in place.  Each hop's
/// arrival `C_k + c_k` and each end `T + w` must fit in `Time`, so checks
/// cannot overflow.
template <class Schedule>
Schedule parse_any(const std::string& text) {
  using Task = TaskOf<Schedule>;
  constexpr bool kSpider = kSpiderTask<Task>;
  constexpr Time kMax = std::numeric_limits<Time>::max();
  Lexer lex(text, "schedule");
  lex.expect(kSpider ? "spider_schedule" : "chain_schedule");
  Schedule schedule;
  std::span<const Chain> legs;
  if constexpr (kSpider) {
    schedule.spider = read_spider(lex);
    legs = legs_of(schedule.spider);
  } else {
    schedule.chain = read_chain(lex);
    legs = legs_of(schedule.chain);
  }

  lex.expect("tasks");
  const std::size_t n = lex.next_index("task count");
  const std::size_t min_tokens = kSpider ? 4 : 3;  // [leg] proc start emission...
  schedule.tasks.reserve(std::min(n, lex.remaining() / min_tokens));
  for (std::size_t i = 0; i < n; ++i) {
    const auto limit = [i](const std::string& what) {
      return "task " + std::to_string(i) + ": " + what + " exceeds the largest time " +
             std::to_string(kMax);
    };
    Task& t = schedule.tasks.emplace_back();
    if constexpr (kSpider) {
      t.leg = lex.next_index("leg");
      MST_REQUIRE(t.leg < legs.size(), "task leg outside the platform");
    }
    const Chain& chain = legs[leg_of(t)];
    t.proc = lex.next_index("destination processor");
    MST_REQUIRE(t.proc < chain.size(), "task destination outside the platform");
    t.start = lex.next_time("start time");
    MST_REQUIRE(t.start <= kMax - chain.work(t.proc), limit("end T + w"));
    t.emissions.resize(t.proc + 1);
    for (std::size_t k = 0; k <= t.proc; ++k) {
      t.emissions[k] = lex.next_time("emission time");
      MST_REQUIRE(t.emissions[k] <= kMax - chain.comm(k),
                  limit("arrival C_k + c_k on link " + std::to_string(k)));
    }
  }
  lex.expect_end();
  return schedule;
}

}  // namespace

std::string write_schedule(const ChainSchedule& schedule) { return write_any(schedule); }
std::string write_schedule(const SpiderSchedule& schedule) { return write_any(schedule); }

ChainSchedule parse_chain_schedule(const std::string& text) {
  return parse_any<ChainSchedule>(text);
}

SpiderSchedule parse_spider_schedule(const std::string& text) {
  return parse_any<SpiderSchedule>(text);
}

}  // namespace mst
