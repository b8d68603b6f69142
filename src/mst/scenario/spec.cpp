#include "mst/scenario/spec.hpp"

#include <sstream>
#include <stdexcept>

#include "mst/api/platform_io.hpp"

namespace mst::scenario {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "spec line " << line << ": " << what;
  throw std::invalid_argument(os.str());
}

/// Strips a trailing comment and surrounding whitespace.
std::string strip(const std::string& raw) {
  std::string line = raw;
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const std::size_t last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

std::int64_t parse_int(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(token, &pos);
  } catch (const std::invalid_argument&) {
    fail(line, "expected a number, got '" + token + "'");
  } catch (const std::out_of_range&) {
    fail(line, "number out of range: '" + token + "'");
  }
  if (pos != token.size()) fail(line, "trailing characters in number '" + token + "'");
  return value;
}

std::uint64_t parse_u64(const std::string& token, std::size_t line) {
  const std::int64_t value = parse_int(token, line);
  if (value < 0) fail(line, "expected a non-negative number, got '" + token + "'");
  return static_cast<std::uint64_t>(value);
}

std::size_t parse_size(const std::string& token, std::size_t line) {
  const std::int64_t value = parse_int(token, line);
  if (value < 1) fail(line, "expected a positive number, got '" + token + "'");
  return static_cast<std::size_t>(value);
}

double parse_double(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail(line, "expected a floating-point number, got '" + token + "'");
  }
  if (pos != token.size()) fail(line, "trailing characters in number '" + token + "'");
  return value;
}

api::PlatformKind parse_kind(const std::string& token, std::size_t line) {
  const auto kind = api::platform_kind_from(token);
  if (!kind) fail(line, "unknown platform kind '" + token + "'");
  return *kind;
}

PlatformClass parse_class(const std::string& token, std::size_t line) {
  for (PlatformClass cls : all_platform_classes()) {
    if (token == to_string(cls)) return cls;
  }
  fail(line, "unknown platform class '" + token + "'");
}

/// One `tasks.sizes` line → a size-only workload generator.
WorkloadGen parse_sizes_gen(const std::vector<std::string>& tokens, std::size_t line) {
  WorkloadGen gen;
  if (tokens.size() < 2) fail(line, "'tasks.sizes' needs a family (unit|fixed|uniform)");
  const std::string& family = tokens[1];
  if (family == "unit") {
    if (tokens.size() != 2) fail(line, "'tasks.sizes unit' takes no parameters");
  } else if (family == "fixed") {
    if (tokens.size() != 3) fail(line, "'tasks.sizes fixed' takes '<size>'");
    gen.sizes = SizeDist{SizeDist::Kind::kFixed, parse_int(tokens[2], line), 0};
  } else if (family == "uniform") {
    if (tokens.size() != 4) fail(line, "'tasks.sizes uniform' takes '<lo> <hi>'");
    gen.sizes =
        SizeDist{SizeDist::Kind::kUniform, parse_int(tokens[2], line), parse_int(tokens[3], line)};
  } else {
    fail(line, "unknown size family '" + family + "' (expected unit|fixed|uniform)");
  }
  try {
    validate(gen);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
  return gen;
}

/// One `tasks.release` / `tasks.arrival` line → a release-only generator.
WorkloadGen parse_release_gen(const std::vector<std::string>& tokens, std::size_t line,
                              bool arrival_key) {
  WorkloadGen gen;
  const char* key = arrival_key ? "'tasks.arrival'" : "'tasks.release'";
  if (tokens.size() < 2) {
    fail(line, std::string(key) + (arrival_key ? " needs a family (poisson|bursts)"
                                               : " needs a family (periodic|jitter)"));
  }
  const std::string& family = tokens[1];
  if (!arrival_key && family == "periodic") {
    if (tokens.size() != 3) fail(line, "'tasks.release periodic' takes '<gap>'");
    gen.arrival = ArrivalDist{ArrivalDist::Kind::kPeriodic, parse_int(tokens[2], line), 0};
  } else if (!arrival_key && family == "jitter") {
    if (tokens.size() != 4) fail(line, "'tasks.release jitter' takes '<lo> <hi>'");
    gen.arrival = ArrivalDist{ArrivalDist::Kind::kJitter, parse_int(tokens[2], line),
                              parse_int(tokens[3], line)};
  } else if (arrival_key && family == "poisson") {
    if (tokens.size() != 3) fail(line, "'tasks.arrival poisson' takes '<mean-gap>'");
    gen.arrival = ArrivalDist{ArrivalDist::Kind::kPoisson, parse_int(tokens[2], line), 0};
  } else if (arrival_key && family == "bursts") {
    if (tokens.size() != 4) fail(line, "'tasks.arrival bursts' takes '<size> <gap>'");
    gen.arrival = ArrivalDist{ArrivalDist::Kind::kBursts, parse_int(tokens[2], line),
                              parse_int(tokens[3], line)};
  } else {
    fail(line, "unknown family '" + family + "' for " + key);
  }
  try {
    validate(gen);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
  return gen;
}

}  // namespace

SweepSpec parse_spec(const std::string& text) {
  SweepSpec spec;
  std::istringstream in(text);
  std::string raw;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = strip(raw);
    if (line.empty()) continue;
    const std::vector<std::string> tokens = tokens_of(line);
    const std::string& key = tokens.front();

    if (!saw_header) {
      if (key != "sweep") fail(line_no, "spec must start with 'sweep <name>'");
      if (tokens.size() > 2) fail(line_no, "'sweep' takes at most one name");
      if (tokens.size() == 2) spec.name = tokens[1];
      saw_header = true;
      continue;
    }

    if (key == "end") break;
    if (key == "seed") {
      if (tokens.size() != 2) fail(line_no, "'seed' takes one value");
      spec.seed = parse_u64(tokens[1], line_no);
    } else if (key == "kinds") {
      spec.kinds.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        spec.kinds.push_back(parse_kind(tokens[i], line_no));
      }
    } else if (key == "classes") {
      spec.classes.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        spec.classes.push_back(parse_class(tokens[i], line_no));
      }
    } else if (key == "sizes") {
      spec.sizes.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        spec.sizes.push_back(parse_size(tokens[i], line_no));
      }
    } else if (key == "instances") {
      if (tokens.size() != 2) fail(line_no, "'instances' takes one value");
      spec.instances = parse_size(tokens[1], line_no);
    } else if (key == "times") {
      if (tokens.size() != 3) fail(line_no, "'times' takes '<lo> <hi>'");
      spec.lo = parse_int(tokens[1], line_no);
      spec.hi = parse_int(tokens[2], line_no);
    } else if (key == "leg-len") {
      if (tokens.size() != 3) fail(line_no, "'leg-len' takes '<min> <max>'");
      spec.min_leg_len = parse_size(tokens[1], line_no);
      spec.max_leg_len = parse_size(tokens[2], line_no);
    } else if (key == "depth-bias") {
      if (tokens.size() != 2) fail(line_no, "'depth-bias' takes one value");
      spec.depth_bias = parse_double(tokens[1], line_no);
    } else if (key == "tasks") {
      spec.tasks.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        spec.tasks.push_back(parse_size(tokens[i], line_no));
      }
    } else if (key == "deadlines") {
      spec.deadlines.clear();
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        spec.deadlines.push_back(parse_int(tokens[i], line_no));
      }
    } else if (key == "stream") {
      if (tokens.size() != 1) fail(line_no, "'stream' is a bare keyword (no values)");
      spec.stream = true;
    } else if (key == "tasks.sizes") {
      spec.workloads.push_back(parse_sizes_gen(tokens, line_no));
    } else if (key == "tasks.release") {
      spec.workloads.push_back(parse_release_gen(tokens, line_no, /*arrival_key=*/false));
    } else if (key == "tasks.arrival") {
      spec.workloads.push_back(parse_release_gen(tokens, line_no, /*arrival_key=*/true));
    } else if (key == "algos") {
      spec.algorithms.assign(tokens.begin() + 1, tokens.end());
    } else if (key == "platform") {
      if (tokens.size() != 1) fail(line_no, "'platform' starts a block; no inline values");
      // Collect the block verbatim until its own 'end' and hand it to the
      // typed platform parser.
      std::ostringstream block;
      bool closed = false;
      while (std::getline(in, raw)) {
        ++line_no;
        if (strip(raw) == "end") {
          closed = true;
          break;
        }
        block << raw << '\n';
      }
      if (!closed) fail(line_no, "unterminated 'platform' block (missing 'end')");
      try {
        spec.platforms.push_back(api::parse_any_platform(block.str()));
      } catch (const std::invalid_argument& e) {
        fail(line_no, std::string("bad platform block: ") + e.what());
      }
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_header) throw std::invalid_argument("spec: empty input (expected 'sweep <name>')");
  return spec;
}

}  // namespace mst::scenario
