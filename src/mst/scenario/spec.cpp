#include "mst/scenario/spec.hpp"

#include <limits>
#include <stdexcept>
#include <string_view>

#include "mst/api/platform_io.hpp"
#include "mst/common/lexer.hpp"

namespace mst::scenario {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("spec " + at_line(line) + what);
}

/// The values of one key, which run to the end of the key's line.
class KeyLine {
 public:
  explicit KeyLine(Lexer& lex) : lex_(lex), line_(lex.line()) {}

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] bool more() const { return !lex_.line_ended(); }

  /// The next value; `usage` says what the key takes if the line has ended.
  std::string_view next(const char* usage) {
    if (!more()) fail(line_, usage);
    return lex_.next(usage);
  }

  /// The next value as a whole number of at least `least`.
  std::int64_t integer(const char* usage,
                       std::int64_t least = std::numeric_limits<std::int64_t>::min()) {
    const std::string_view token = next(usage);
    const std::optional<Time> value = to_time(token);
    if (!value) fail(line_, "expected a number, got '" + std::string(token) + "'");
    if (*value < least) {
      fail(line_, "expected a number >= " + std::to_string(least) + ", got " + std::string(token));
    }
    return *value;
  }

  std::size_t positive(const char* usage) { return static_cast<std::size_t>(integer(usage, 1)); }

  double real(const char* usage) {
    const std::string_view token = next(usage);
    const std::optional<double> value = to_double(token);
    if (!value) fail(line_, "expected a floating-point number, got '" + std::string(token) + "'");
    return *value;
  }

  /// Fails with `usage` unless the line has ended.
  void end(const char* usage) const {
    if (more()) fail(line_, usage);
  }

 private:
  Lexer& lex_;
  std::size_t line_;
};

api::PlatformKind parse_kind(std::string_view token, std::size_t line) {
  const auto kind = api::platform_kind_from(std::string(token));
  if (!kind) fail(line, "unknown platform kind '" + std::string(token) + "'");
  return *kind;
}

PlatformClass parse_class(std::string_view token, std::size_t line) {
  for (PlatformClass cls : all_platform_classes()) {
    if (token == to_string(cls)) return cls;
  }
  fail(line, "unknown platform class '" + std::string(token) + "'");
}

void check(const WorkloadGen& gen, std::size_t line) {
  try {
    validate(gen);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// One `tasks.sizes` line → a size-only workload generator.
WorkloadGen parse_sizes_gen(KeyLine& values) {
  WorkloadGen gen;
  const std::string_view family = values.next("'tasks.sizes' needs a family (unit|fixed|uniform)");
  if (family == "unit") {
    values.end("'tasks.sizes unit' takes no parameters");
  } else if (family == "fixed") {
    const char* usage = "'tasks.sizes fixed' takes '<size>'";
    gen.sizes = SizeDist{SizeDist::Kind::kFixed, values.integer(usage), 0};
    values.end(usage);
  } else if (family == "uniform") {
    const char* usage = "'tasks.sizes uniform' takes '<lo> <hi>'";
    const Time lo = values.integer(usage);
    gen.sizes = SizeDist{SizeDist::Kind::kUniform, lo, values.integer(usage)};
    values.end(usage);
  } else {
    fail(values.line(),
         "unknown size family '" + std::string(family) + "' (expected unit|fixed|uniform)");
  }
  check(gen, values.line());
  return gen;
}

/// One `tasks.release` / `tasks.arrival` line → a release-only generator.
WorkloadGen parse_release_gen(KeyLine& values, bool arrival_key) {
  WorkloadGen gen;
  const std::string_view family =
      values.next(arrival_key ? "'tasks.arrival' needs a family (poisson|bursts)"
                              : "'tasks.release' needs a family (periodic|jitter)");
  const auto one = [&](ArrivalDist::Kind kind, const char* usage) {
    gen.arrival = ArrivalDist{kind, values.integer(usage), 0};
    values.end(usage);
  };
  const auto two = [&](ArrivalDist::Kind kind, const char* usage) {
    const Time a = values.integer(usage);
    gen.arrival = ArrivalDist{kind, a, values.integer(usage)};
    values.end(usage);
  };
  if (!arrival_key && family == "periodic") {
    one(ArrivalDist::Kind::kPeriodic, "'tasks.release periodic' takes '<gap>'");
  } else if (!arrival_key && family == "jitter") {
    two(ArrivalDist::Kind::kJitter, "'tasks.release jitter' takes '<lo> <hi>'");
  } else if (arrival_key && family == "poisson") {
    one(ArrivalDist::Kind::kPoisson, "'tasks.arrival poisson' takes '<mean-gap>'");
  } else if (arrival_key && family == "bursts") {
    two(ArrivalDist::Kind::kBursts, "'tasks.arrival bursts' takes '<size> <gap>'");
  } else {
    fail(values.line(), "unknown family '" + std::string(family) + "' for " +
                            (arrival_key ? "'tasks.arrival'" : "'tasks.release'"));
  }
  check(gen, values.line());
  return gen;
}

}  // namespace

SweepSpec parse_spec(const std::string& text) {
  SweepSpec spec;
  Lexer lex(text, "spec");
  if (lex.done()) throw std::invalid_argument("spec: empty input (expected 'sweep <name>')");
  if (lex.next("'sweep'") != "sweep") fail(lex.line(), "spec must start with 'sweep <name>'");
  KeyLine header(lex);
  if (header.more()) spec.name = header.next("name");
  header.end("'sweep' takes at most one name");

  while (!lex.done()) {
    const std::string_view key = lex.next("key");
    KeyLine values(lex);
    if (key == "end") break;
    if (key == "seed") {
      const char* usage = "'seed' takes one value";
      spec.seed = static_cast<std::uint64_t>(values.integer(usage, 0));
      values.end(usage);
    } else if (key == "kinds") {
      spec.kinds.clear();
      while (values.more()) spec.kinds.push_back(parse_kind(values.next("kind"), values.line()));
    } else if (key == "classes") {
      spec.classes.clear();
      while (values.more()) {
        spec.classes.push_back(parse_class(values.next("class"), values.line()));
      }
    } else if (key == "sizes") {
      spec.sizes.clear();
      while (values.more()) spec.sizes.push_back(values.positive("size"));
    } else if (key == "instances") {
      const char* usage = "'instances' takes one value";
      spec.instances = values.positive(usage);
      values.end(usage);
    } else if (key == "times") {
      const char* usage = "'times' takes '<lo> <hi>'";
      spec.lo = values.integer(usage);
      spec.hi = values.integer(usage);
      values.end(usage);
    } else if (key == "leg-len") {
      const char* usage = "'leg-len' takes '<min> <max>'";
      spec.min_leg_len = values.positive(usage);
      spec.max_leg_len = values.positive(usage);
      values.end(usage);
    } else if (key == "depth-bias") {
      const char* usage = "'depth-bias' takes one value";
      spec.depth_bias = values.real(usage);
      values.end(usage);
    } else if (key == "tasks") {
      spec.tasks.clear();
      while (values.more()) spec.tasks.push_back(values.positive("task count"));
    } else if (key == "deadlines") {
      spec.deadlines.clear();
      while (values.more()) spec.deadlines.push_back(values.integer("deadline"));
    } else if (key == "stream") {
      values.end("'stream' is a bare keyword (no values)");
      spec.stream = true;
    } else if (key == "tasks.sizes") {
      spec.workloads.push_back(parse_sizes_gen(values));
    } else if (key == "tasks.release") {
      spec.workloads.push_back(parse_release_gen(values, /*arrival_key=*/false));
    } else if (key == "tasks.arrival") {
      spec.workloads.push_back(parse_release_gen(values, /*arrival_key=*/true));
    } else if (key == "algos") {
      spec.algorithms.clear();
      while (values.more()) spec.algorithms.emplace_back(values.next("algorithm"));
    } else if (key == "platform") {
      values.end("'platform' starts a block; no inline values");
      // The block is read in place, so its errors name their spec line.
      try {
        spec.platforms.push_back(api::read_any_platform(lex));
      } catch (const std::invalid_argument& e) {
        fail(lex.line(), std::string("bad platform block: ") + e.what());
      }
      if (lex.done()) fail(lex.line(), "unterminated 'platform' block (missing 'end')");
      const std::string_view end = lex.next("'end'");
      if (end != "end") {
        fail(lex.line(), "bad platform block: expected 'end', got '" + std::string(end) + "'");
      }
    } else {
      fail(values.line(), "unknown key '" + std::string(key) + "'");
    }
  }
  return spec;
}

}  // namespace mst::scenario
