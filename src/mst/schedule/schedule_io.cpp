#include "mst/schedule/schedule_io.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mst/common/assert.hpp"
#include "mst/platform/io.hpp"

namespace mst {

namespace {

/// Minimal whitespace tokenizer (schedule files are machine-written; the
/// platform header is delegated to platform/io.hpp which tracks lines).
class Tokens {
 public:
  explicit Tokens(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream ls(line);
      std::string tok;
      while (ls >> tok) tokens_.push_back(tok);
    }
  }

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] std::size_t remaining() const { return tokens_.size() - pos_; }

  std::string next(const char* what) {
    MST_REQUIRE(!done(), std::string("unexpected end of schedule, expected ") + what);
    return tokens_[pos_++];
  }

  Time next_time(const char* what) {
    const std::string tok = next(what);
    std::size_t used = 0;
    Time v = 0;
    try {
      v = std::stoll(tok, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    MST_REQUIRE(used == tok.size(),
                std::string("expected ") + what + ", got '" + tok + "'");
    return v;
  }

  std::size_t next_index(const char* what) {
    const Time v = next_time(what);
    MST_REQUIRE(v >= 0, std::string(what) + " must be non-negative");
    return static_cast<std::size_t>(v);
  }

  void expect(const std::string& keyword) {
    const std::string tok = next(keyword.c_str());
    MST_REQUIRE(tok == keyword, "expected '" + keyword + "', got '" + tok + "'");
  }

  void expect_end() {
    MST_REQUIRE(done(), "trailing input in schedule file: '" + tokens_[pos_] + "'");
  }

  /// Consumes the `pairs` processor `c w` pairs of the embedded platform.
  std::string take_pairs(std::size_t pairs) {
    std::ostringstream os;
    for (std::size_t i = 0; i < 2 * pairs; ++i) os << next("platform description") << ' ';
    return os.str();
  }

 private:
  std::vector<std::string> tokens_;
  std::size_t pos_ = 0;
};

template <class Task>
void write_task_line(std::ostream& os, const Task& t) {
  os << t.proc << ' ' << t.start;
  for (Time e : t.emissions) os << ' ' << e;
  os << '\n';
}

/// Reads task `index`'s line on `chain`.  Each hop's arrival `C_k + c_k`
/// and the end `T + w` must fit in `Time`, so checks cannot overflow.
ChainTask parse_task_line(Tokens& toks, const Chain& chain, std::size_t index) {
  constexpr Time kMax = std::numeric_limits<Time>::max();
  const auto limit = [index](const std::string& what) {
    return "task " + std::to_string(index) + ": " + what + " exceeds the largest time " +
           std::to_string(kMax);
  };
  ChainTask t;
  t.proc = toks.next_index("destination processor");
  MST_REQUIRE(t.proc < chain.size(), "task destination outside the platform");
  t.start = toks.next_time("start time");
  MST_REQUIRE(t.start <= kMax - chain.work(t.proc), limit("end T + w"));
  t.emissions.resize(t.proc + 1);
  for (std::size_t k = 0; k <= t.proc; ++k) {
    t.emissions[k] = toks.next_time("emission time");
    MST_REQUIRE(t.emissions[k] <= kMax - chain.comm(k),
                limit("arrival C_k + c_k on link " + std::to_string(k)));
  }
  return t;
}

}  // namespace

std::string write_schedule(const ChainSchedule& schedule) {
  std::ostringstream os;
  os << "chain_schedule\n";
  os << write_chain(schedule.chain);
  os << "tasks " << schedule.tasks.size() << '\n';
  os << "# proc start emissions...\n";
  for (const ChainTask& t : schedule.tasks) write_task_line(os, t);
  return os.str();
}

std::string write_schedule(const SpiderSchedule& schedule) {
  std::ostringstream os;
  os << "spider_schedule\n";
  os << write_spider(schedule.spider);
  os << "tasks " << schedule.tasks.size() << '\n';
  os << "# leg proc start emissions...\n";
  for (const SpiderTask& t : schedule.tasks) write_task_line(os << t.leg << ' ', t);
  return os.str();
}

ChainSchedule parse_chain_schedule(const std::string& text) {
  Tokens toks(text);
  toks.expect("chain_schedule");
  toks.expect("chain");
  const std::size_t p = toks.next_index("processor count");
  MST_REQUIRE(p >= 1, "chain must have at least one processor");
  const Chain chain = parse_chain("chain " + std::to_string(p) + '\n' + toks.take_pairs(p));

  toks.expect("tasks");
  const std::size_t n = toks.next_index("task count");
  ChainSchedule schedule{chain, {}};
  schedule.tasks.reserve(std::min(n, toks.remaining() / 3));  // a task line has 3+ tokens
  for (std::size_t i = 0; i < n; ++i) schedule.tasks.push_back(parse_task_line(toks, chain, i));
  toks.expect_end();
  return schedule;
}

SpiderSchedule parse_spider_schedule(const std::string& text) {
  Tokens toks(text);
  toks.expect("spider_schedule");
  toks.expect("spider");
  const std::size_t legs = toks.next_index("leg count");
  MST_REQUIRE(legs >= 1, "spider must have at least one leg");
  std::ostringstream platform_text;
  platform_text << "spider " << legs << '\n';
  for (std::size_t l = 0; l < legs; ++l) {
    toks.expect("leg");
    const std::size_t p = toks.next_index("leg length");
    MST_REQUIRE(p >= 1, "leg must have at least one processor");
    platform_text << "leg " << p << '\n' << toks.take_pairs(p) << '\n';
  }
  const Spider spider = parse_spider(platform_text.str());

  toks.expect("tasks");
  const std::size_t n = toks.next_index("task count");
  SpiderSchedule schedule{spider, {}};
  schedule.tasks.reserve(std::min(n, toks.remaining() / 4));  // a task line has 4+ tokens
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t leg = toks.next_index("leg");
    MST_REQUIRE(leg < legs, "task leg outside the platform");
    ChainTask t = parse_task_line(toks, spider.leg(leg), i);
    schedule.tasks.push_back(SpiderTask{leg, t.proc, t.start, std::move(t.emissions)});
  }
  toks.expect_end();
  return schedule;
}

}  // namespace mst
