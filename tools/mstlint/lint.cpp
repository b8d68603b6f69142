#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace mstlint {

namespace {

// ---------------------------------------------------------------------------
// Rule table

const std::vector<RuleInfo> kRules = {
    {"lossy-float-format",
     "printf-style float conversion that is not %.17g",
     "Reports are compared byte-for-byte across thread counts and re-parsed "
     "by downstream tooling; only %.17g (max_digits10) round-trips every "
     "double.  Human-facing renderers are allowlisted by file."},
    {"stream-precision",
     "std::setprecision(<17), std::fixed or std::scientific on a stream",
     "Stream manipulators silently truncate doubles below round-trip "
     "precision; machine-readable writers must go through %.17g."},
    {"raw-double-stream",
     "operator<< on a double at default (6-digit) ostream precision",
     "The default ostream precision is display-lossy; CSV/JSON columns "
     "produced this way cannot be compared or re-parsed exactly."},
    {"ambient-rng",
     "rand()/srand()/std::random_device/mt19937/time() seeding",
     "Every random draw must flow from an explicit seed (SolveOptions::seed "
     "or the sweep spec) through mst::Rng, or runs are not reproducible "
     "bit-for-bit across machines and standard libraries."},
    {"unordered-container",
     "std::unordered_{map,set} in deterministic-output code",
     "Hash-table iteration order is implementation-defined; one pass over "
     "an unordered container in a reporter, runner or spec path breaks the "
     "byte-identical-output contract.  Use std::map/std::set or sorted "
     "vectors."},
    {"zero-alloc",
     "allocation inside a `// mstlint: zero-alloc` region",
     "The counting hot paths and the simulator event loop promise zero "
     "steady-state heap traffic (pinned dynamically by the alloc probe); "
     "naked new/malloc or a local allocating container breaks that promise "
     "off the probe's radar.  `thread_local` is banned in the regions too: "
     "the zero-alloc paths take their scratch explicitly (SolveOptions::"
     "scratch / *_into parameters), and a hidden per-thread static both "
     "defeats that discipline and lazily constructs — possibly allocating — "
     "on each new thread's first touch, invisible to the probe."},
    {"registry-supports",
     "Registry entry whose AlgorithmInfo omits the supports field",
     "An AlgorithmInfo literal that stops before `supports` silently "
     "advertises identical-tasks-only; every entry must state its "
     "capability row explicitly so the matrix is reviewable."},
    {"layering",
     "#include that jumps to a higher (or unrelated) module layer",
     "The library is layered common -> platform -> workload -> schedule -> "
     "core -> baselines -> heuristics -> sim -> analysis -> api -> "
     "scenario; an upward include couples an inner algorithm to the "
     "registry/report surface and makes the layers untestable in "
     "isolation.  The allowed edges are data in tools/mstlint/lint.cpp."},
    {"include-cycle",
     "cycle in the project #include graph",
     "A header cycle means neither file can be understood (or compiled "
     "standalone) without the other; the one-TU-per-header gate and the "
     "layer DAG both presuppose an acyclic graph."},
    {"tests-only-api",
     "public function in a src/mst/ header that only tests/ references",
     "Every public function is API to document and keep compiling; one that "
     "only tests call serves nothing the library ships.  A name counts as "
     "used when it appears in src/, tools/, bench/, examples/ or perfbench/ "
     "outside its own header and same-stem .cpp, or inside an inline body "
     "of its own header.  Functions are keyed by name and parameter count: "
     "a call names the overloads its argument count fits (defaulted "
     "parameters included), and a mention that is not a call, or whose "
     "arguments the token walk cannot count, names every overload."},
    {"shared-mutable-state",
     "static-storage mutable state with no thread-safety story",
     "The sweep runner fans cells over a thread pool; a naked mutable "
     "global or function-local static is a data race waiting for the "
     "second thread.  Static state must be const/constexpr, thread_local, "
     "a synchronization primitive, or carry MST_GUARDED_BY(mutex)."},
    {"allow-justification",
     "mstlint suppression without a `-- reason` justification",
     "Suppressions are part of the reviewed source contract; an allow() "
     "with no recorded reason is indistinguishable from a silenced bug."},
    {"bad-directive",
     "malformed or unbalanced `// mstlint:` directive",
     "Directives the analyzer cannot parse would otherwise be dead "
     "comments that look like active suppressions."},
};

// Files allowlisted for human-facing float output: fixed-precision table
// alignment and SVG pixel coordinates are display formats, not data.
bool float_rules_allowlisted(const std::string& path) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return path.size() >= s.size() && path.compare(path.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with("src/mst/common/table.cpp") || ends_with("src/mst/schedule/svg.cpp");
}

// The registry-supports rule only has meaning where AlgorithmInfo literals
// are registered (and in the self-test fixtures, which carry the marker in
// their file name).
bool registry_rule_applies(const std::string& path) {
  return path.find("registry") != std::string::npos;
}

// ---------------------------------------------------------------------------
// Comment/string stripping
//
// One pass over the raw text keeps three synchronized views per line: the
// original text (directive parsing), the code with comments and literal
// bodies blanked out (token rules), and the collected string-literal bodies
// (format-string rules).

struct Stripped {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::pair<int, std::string>> strings;  // 1-based line, body
  std::vector<std::string> macros;  // code of `#define` lines, blanked in `code`
};

Stripped strip(const std::string& content) {
  Stripped out;
  {
    std::string line;
    std::istringstream is(content);
    while (std::getline(is, line)) out.raw.push_back(line);
    if (out.raw.empty()) out.raw.emplace_back();
  }

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::string literal;
  int literal_line = 0;

  out.code.reserve(out.raw.size());
  for (std::size_t li = 0; li < out.raw.size(); ++li) {
    const std::string& raw = out.raw[li];
    std::string code;
    code.reserve(raw.size());
    if (state == State::kLineComment) state = State::kCode;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            i = raw.size();  // rest of the line is comment
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            code += "  ";
            ++i;
          } else if (c == '"') {
            state = State::kString;
            literal.clear();
            literal_line = static_cast<int>(li) + 1;
            code += '"';
          } else if (c == '\'') {
            state = State::kChar;
            code += '\'';
          } else {
            code += c;
          }
          break;
        case State::kLineComment:
          break;  // unreachable: handled by the line reset above
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            code += "  ";
            ++i;
          } else {
            code += ' ';
          }
          break;
        case State::kString:
          if (c == '\\' && i + 1 < raw.size()) {
            literal += c;
            literal += next;
            ++i;
          } else if (c == '"') {
            state = State::kCode;
            out.strings.emplace_back(literal_line, literal);
            code += '"';
          } else {
            literal += c;
          }
          break;
        case State::kChar:
          if (c == '\\' && i + 1 < raw.size()) {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
            code += '\'';
          }
          break;
      }
    }
    // An unterminated string at end of line (not legal C++ outside raw
    // literals, which this tree does not use) degrades to "close it here".
    if (state == State::kString) {
      state = State::kCode;
      out.strings.emplace_back(literal_line, literal);
    }
    out.code.push_back(std::move(code));
  }

  // Preprocessor directives are not code to the token rules: `#include
  // <unordered_map>` names a banned token without using it, and the use
  // sites are what the rules exist to flag.  String literals inside
  // directives (e.g. a format string in a #define) were already collected
  // above and stay visible to the format rules.
  bool continuation = false;
  bool in_define = false;
  for (std::string& code : out.code) {
    const std::size_t first = code.find_first_not_of(" \t");
    const bool directive =
        continuation || (first != std::string::npos && code[first] == '#');
    if (directive) {
      static const std::regex kDefine(R"(^\s*#\s*define\b)");
      if (!continuation) in_define = std::regex_search(code, kDefine);
      if (in_define) out.macros.push_back(code);
      const std::size_t last = code.find_last_not_of(" \t");
      continuation = last != std::string::npos && code[last] == '\\';
      std::fill(code.begin(), code.end(), ' ');
    } else {
      continuation = false;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Directives

struct Allow {
  std::vector<std::string> rules;
  bool justified = false;
  bool next_line = false;
};

struct Directives {
  std::map<int, Allow> allows;        // by 1-based line
  std::vector<std::pair<int, int>> zero_alloc;  // [begin, end] line ranges
  std::vector<Diagnostic> errors;     // meta-diagnostics (never suppressible)
};

void parse_allow(const std::string& file, int line, const std::string& args,
                 const std::string& tail, bool next_line, Directives& out) {
  Allow allow;
  allow.next_line = next_line;
  std::string id;
  std::istringstream is(args);
  while (std::getline(is, id, ',')) {
    // Trim.
    const auto b = id.find_first_not_of(" \t");
    const auto e = id.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    id = id.substr(b, e - b + 1);
    if (!known_rule(id)) {
      out.errors.push_back({file, line, "bad-directive",
                            "allow() names unknown rule '" + id + "'; see --list-rules"});
      continue;
    }
    allow.rules.push_back(id);
  }
  // The justification is everything after ` -- `, and must be non-empty.
  const auto dashes = tail.find("--");
  if (dashes != std::string::npos) {
    const std::string reason = tail.substr(dashes + 2);
    allow.justified = reason.find_first_not_of(" \t") != std::string::npos;
  }
  if (!allow.justified) {
    out.errors.push_back({file, line, "allow-justification",
                          "suppression needs a justification: `// mstlint: allow(rule) -- why`"});
  }
  out.allows[line] = std::move(allow);
}

Directives parse_directives(const std::string& file, const std::vector<std::string>& raw) {
  static const std::regex kDirective(R"(//\s*mstlint:\s*(.*)$)");
  static const std::regex kAllow(R"(^(allow|allow-next-line)\s*\(([^)]*)\)\s*(.*)$)");
  Directives out;
  int region_begin = 0;  // 0: not in a region
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const int line = static_cast<int>(li) + 1;
    std::smatch m;
    if (!std::regex_search(raw[li], m, kDirective)) continue;
    const std::string body = m[1];
    std::smatch am;
    if (std::regex_match(body, am, kAllow)) {
      parse_allow(file, line, am[2], am[3], am[1] == "allow-next-line", out);
    } else if (body.rfind("zero-alloc", 0) == 0 && body.rfind("zero-alloc-end", 0) != 0) {
      if (region_begin != 0) {
        out.errors.push_back({file, line, "bad-directive",
                              "nested `zero-alloc` region (previous begins at line " +
                                  std::to_string(region_begin) + ")"});
      } else {
        region_begin = line;
      }
    } else if (body.rfind("zero-alloc-end", 0) == 0) {
      if (region_begin == 0) {
        out.errors.push_back(
            {file, line, "bad-directive", "`zero-alloc-end` without a matching `zero-alloc`"});
      } else {
        out.zero_alloc.emplace_back(region_begin, line);
        region_begin = 0;
      }
    } else {
      out.errors.push_back({file, line, "bad-directive",
                            "unrecognized directive `// mstlint: " + body + "`"});
    }
  }
  if (region_begin != 0) {
    out.errors.push_back({file, region_begin, "bad-directive",
                          "`zero-alloc` region is never closed (`// mstlint: zero-alloc-end`)"});
  }
  return out;
}

bool suppressed(const Directives& directives, int line, const std::string& rule) {
  const auto hit = [&](int at, bool want_next) {
    const auto it = directives.allows.find(at);
    if (it == directives.allows.end() || it->second.next_line != want_next) return false;
    const auto& rules = it->second.rules;
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
  };
  return hit(line, /*want_next=*/false) || hit(line - 1, /*want_next=*/true);
}

// ---------------------------------------------------------------------------
// Individual rules

void add(std::vector<Diagnostic>& out, const std::string& file, int line, const char* rule,
         std::string message) {
  out.push_back({file, line, rule, std::move(message)});
}

/// printf float conversions inside string literals.  `%%` is an escaped
/// percent, `%.17g` is the sanctioned exact spelling; everything else in
/// the aAeEfFgG family is display-lossy.
void rule_lossy_format(const std::string& file, const Stripped& stripped,
                       std::vector<Diagnostic>& out) {
  static const std::regex kSpec(R"(%[-+ #0']*(?:[0-9]+|\*)?(?:\.(?:[0-9]+|\*))?[aAeEfFgG])");
  for (const auto& [line, body] : stripped.strings) {
    std::string text = body;
    for (auto pos = text.find("%%"); pos != std::string::npos; pos = text.find("%%")) {
      text.erase(pos, 2);
    }
    for (std::sregex_iterator it(text.begin(), text.end(), kSpec), end; it != end; ++it) {
      const std::string spec = it->str();
      if (spec == "%.17g") continue;
      add(out, file, line, "lossy-float-format",
          "float format '" + spec + "' is not round-trip exact; use %.17g");
    }
  }
}

void rule_stream_precision(const std::string& file, const Stripped& stripped,
                           std::vector<Diagnostic>& out) {
  static const std::regex kSetPrecision(R"(\bsetprecision\s*\(\s*([0-9]*)\s*\))");
  static const std::regex kManipulator(R"(\bstd\s*::\s*(fixed|scientific)\b)");
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    const std::string& code = stripped.code[li];
    const int line = static_cast<int>(li) + 1;
    for (std::sregex_iterator it(code.begin(), code.end(), kSetPrecision), end; it != end;
         ++it) {
      const std::string digits = (*it)[1];
      if (!digits.empty() && std::stoi(digits) >= 17) continue;
      add(out, file, line, "stream-precision",
          digits.empty()
              ? "setprecision with a non-constant argument cannot be verified round-trip exact"
              : "setprecision(" + digits + ") truncates doubles; need >= 17 or %.17g");
    }
    for (std::sregex_iterator it(code.begin(), code.end(), kManipulator), end; it != end;
         ++it) {
      add(out, file, line, "stream-precision",
          "std::" + (*it)[1].str() + " renders doubles display-lossy");
    }
  }
}

/// Heuristic for default-precision streaming: identifiers declared
/// double/float in this file, streamed with `<<`; plus streaming the
/// library's known double-returning `throughput()`.
void rule_raw_double_stream(const std::string& file, const Stripped& stripped,
                            std::vector<Diagnostic>& out) {
  static const std::regex kDecl(R"(\b(?:double|float)\s+([A-Za-z_]\w*))");
  static const std::regex kStreamed(R"(<<\s*([A-Za-z_]\w*)\b\s*([^\s]?))");
  static const std::regex kThroughput(R"(\bthroughput\s*\(\s*\))");
  std::vector<std::string> doubles;
  for (const std::string& code : stripped.code) {
    for (std::sregex_iterator it(code.begin(), code.end(), kDecl), end; it != end; ++it) {
      doubles.push_back((*it)[1]);
    }
  }
  std::sort(doubles.begin(), doubles.end());
  doubles.erase(std::unique(doubles.begin(), doubles.end()), doubles.end());
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    const std::string& code = stripped.code[li];
    const int line = static_cast<int>(li) + 1;
    for (std::sregex_iterator it(code.begin(), code.end(), kStreamed), end; it != end; ++it) {
      const std::string name = (*it)[1];
      const std::string after = (*it)[2];
      if (after == "(") continue;  // function call, not the tracked variable
      if (std::binary_search(doubles.begin(), doubles.end(), name)) {
        add(out, file, line, "raw-double-stream",
            "'" + name + "' is a double streamed at default ostream precision; render via "
            "%.17g (scenario reports) or a fixed-precision table cell");
      }
    }
    std::smatch tp;
    if (std::regex_search(code, tp, kThroughput)) {
      const auto shift = code.find("<<");
      if (shift != std::string::npos &&
          static_cast<std::size_t>(tp.position(0)) > shift) {
        add(out, file, line, "raw-double-stream",
            "throughput() is a double streamed at default ostream precision; render via "
            "%.17g or a table cell");
      }
    }
  }
}

void rule_ambient_rng(const std::string& file, const Stripped& stripped,
                      std::vector<Diagnostic>& out) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  static const std::vector<Pattern> kPatterns = {
      {std::regex(R"(\b(?:std\s*::\s*)?s?rand\s*\()"), "rand()/srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\bmt19937(?:_64)?\b)"),
       "std::mt19937 (implementation-pinned mst::Rng only)"},
      {std::regex(R"(\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\))"), "time() seeding"},
      {std::regex(R"(\bsystem_clock\b)"), "wall-clock (system_clock) seeding"},
  };
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    for (const Pattern& p : kPatterns) {
      if (std::regex_search(stripped.code[li], p.re)) {
        add(out, file, static_cast<int>(li) + 1, "ambient-rng",
            std::string(p.what) + " is nondeterministic; seeds must flow from "
            "SolveOptions/the sweep spec through mst::Rng");
      }
    }
  }
}

void rule_unordered(const std::string& file, const Stripped& stripped,
                    std::vector<Diagnostic>& out) {
  static const std::regex kUnordered(R"(\bunordered_(?:map|set|multimap|multiset)\b)");
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    if (std::regex_search(stripped.code[li], kUnordered)) {
      add(out, file, static_cast<int>(li) + 1, "unordered-container",
          "unordered container iteration order is implementation-defined; use "
          "std::map/std::set or a sorted vector");
    }
  }
}

/// Allocation tokens inside `// mstlint: zero-alloc` regions.  Warm-scratch
/// mutation (`scratch.x.push_back` onto reserved capacity) is the sanctioned
/// idiom and stays legal — the dynamic alloc probe owns that half of the
/// contract; this rule catches the statically-visible allocations.
void rule_zero_alloc(const std::string& file, const Stripped& stripped,
                     const Directives& directives, std::vector<Diagnostic>& out) {
  static const std::regex kNew(R"((^|[^.\w])new\b)");
  static const std::regex kCAlloc(R"(\b(?:malloc|calloc|realloc|strdup|aligned_alloc)\s*\()");
  static const std::regex kMakeSmart(R"(\bmake_(?:unique|shared)\b)");
  static const std::regex kToString(R"(\bto_string\s*\()");
  static const std::regex kThreadLocal(R"(\bthread_local\b)");
  static const std::regex kContainer(
      R"(\b(?:std\s*::\s*)?(vector|deque|list|forward_list|map|set|multimap|multiset|string|stringstream|ostringstream|istringstream|function|queue|priority_queue|stack|shared_ptr|unique_ptr)\b)");

  for (const auto& [begin, end_line] : directives.zero_alloc) {
    for (int line = begin; line <= end_line; ++line) {
      const std::string& code = stripped.code[static_cast<std::size_t>(line) - 1];
      if (std::regex_search(code, kNew)) {
        add(out, file, line, "zero-alloc", "naked `new` inside a zero-alloc region");
      }
      if (std::regex_search(code, kCAlloc)) {
        add(out, file, line, "zero-alloc", "C allocation call inside a zero-alloc region");
      }
      if (std::regex_search(code, kMakeSmart)) {
        add(out, file, line, "zero-alloc",
            "make_unique/make_shared allocates inside a zero-alloc region");
      }
      if (std::regex_search(code, kToString)) {
        add(out, file, line, "zero-alloc",
            "to_string builds a heap string inside a zero-alloc region");
      }
      if (std::regex_search(code, kThreadLocal)) {
        add(out, file, line, "zero-alloc",
            "thread_local inside a zero-alloc region: pass scratch explicitly "
            "(SolveOptions::scratch / an _into parameter) — a hidden per-thread "
            "static lazily constructs on each new thread, off the probe's radar");
      }
      // Container mentions are fine as references/pointers/nested types;
      // a value declaration or temporary owns an allocation.
      for (std::sregex_iterator it(code.begin(), code.end(), kContainer), rend; it != rend;
           ++it) {
        std::size_t pos = static_cast<std::size_t>(it->position(0)) + it->str().size();
        // Skip a balanced template argument list on this line.
        while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) ++pos;
        if (pos < code.size() && code[pos] == '<') {
          int depth = 0;
          while (pos < code.size()) {
            if (code[pos] == '<') ++depth;
            if (code[pos] == '>' && --depth == 0) {
              ++pos;
              break;
            }
            ++pos;
          }
          while (pos < code.size() && std::isspace(static_cast<unsigned char>(code[pos]))) {
            ++pos;
          }
        }
        if (pos >= code.size()) continue;  // type continues next line: reference-safe uses only
        const char c = code[pos];
        if (c == '&' || c == '*' || c == ':' || c == ',' || c == '>' || c == ')' || c == ';') {
          continue;  // reference, pointer, nested type or bare template argument
        }
        add(out, file, line, "zero-alloc",
            "allocating container declared or constructed inside a zero-alloc region");
      }
    }
  }
}

/// AlgorithmInfo literals passed to Registry::add must spell all six fields:
/// kind, name, summary, optimal, exponential, supports.
void rule_registry_supports(const std::string& file, const Stripped& stripped,
                            std::vector<Diagnostic>& out) {
  // Flatten with a per-character line map so literals spanning lines work.
  std::string flat;
  std::vector<int> line_of;
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    for (const char c : stripped.code[li]) {
      flat += c;
      line_of.push_back(static_cast<int>(li) + 1);
    }
    flat += '\n';
    line_of.push_back(static_cast<int>(li) + 1);
  }

  static const std::regex kAddBrace(R"(\badd\s*\(\s*\{)");
  for (std::sregex_iterator it(flat.begin(), flat.end(), kAddBrace), end; it != end; ++it) {
    const std::size_t open = static_cast<std::size_t>(it->position(0)) + it->str().size() - 1;
    int depth = 0;
    int commas = 0;
    std::size_t pos = open;
    for (; pos < flat.size(); ++pos) {
      const char c = flat[pos];
      if (c == '{' || c == '(' || c == '[') ++depth;
      if (c == '}' || c == ')' || c == ']') {
        --depth;
        if (depth == 0) break;
      }
      if (c == ',' && depth == 1) ++commas;
    }
    const int fields = commas + 1;
    if (fields != 6) {
      add(out, file, line_of[static_cast<std::size_t>(it->position(0))], "registry-supports",
          "AlgorithmInfo literal has " + std::to_string(fields) +
              " fields; spell all 6 (kind, name, summary, optimal, exponential, supports) — "
              "an implicit supports row silently advertises identical-only workloads");
    }
  }
}

/// The shared-mutable-state rule patrols library code (and the self-test
/// fixtures, which carry the marker in their file name); tests and
/// experiment binaries are single-threaded drivers.
bool shared_state_rule_applies(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("shared_state") != std::string::npos;
}

/// `static`-storage mutable state with no thread-safety story.  A flagged
/// declaration head is one that is not const/constexpr, not thread_local,
/// not itself a synchronization primitive, and not annotated with
/// MST_GUARDED_BY.  Function declarations (a `(` before any `=` in the
/// head) are skipped — they declare code, not state.
void rule_shared_mutable_state(const std::string& file, const Stripped& stripped,
                               std::vector<Diagnostic>& out) {
  // Flatten with a per-character line map so declarations spanning lines
  // are judged whole.
  std::string flat;
  std::vector<int> line_of;
  for (std::size_t li = 0; li < stripped.code.size(); ++li) {
    for (const char c : stripped.code[li]) {
      flat += c;
      line_of.push_back(static_cast<int>(li) + 1);
    }
    flat += '\n';
    line_of.push_back(static_cast<int>(li) + 1);
  }

  static const std::regex kStatic(R"(\bstatic\b)");
  static const std::regex kExempt(
      R"(\b(?:const|constexpr|consteval|thread_local|atomic(?:_[a-z0-9_]+)?|mutex|Mutex|once_flag|condition_variable)\b|MST_GUARDED_BY|MST_PT_GUARDED_BY)");
  for (std::sregex_iterator it(flat.begin(), flat.end(), kStatic), end; it != end; ++it) {
    const std::size_t at = static_cast<std::size_t>(it->position(0));
    // Declaration head: from the start of the statement's line to the first
    // `;` or `{` (brace-init heads keep scanning to the closing `;`).
    std::size_t begin = flat.rfind('\n', at);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t pos = at;
    bool saw_assign = false;
    bool saw_call = false;
    while (pos < flat.size() && flat[pos] != ';' && flat[pos] != '{') {
      if (flat[pos] == '=') saw_assign = true;
      if (flat[pos] == '(' && !saw_assign) saw_call = true;
      ++pos;
    }
    if (saw_call) continue;  // function/method declaration, not state
    const std::string head = flat.substr(begin, pos - begin);
    if (std::regex_search(head, kExempt)) continue;
    add(out, file, line_of[at], "shared-mutable-state",
        "mutable static-storage state with no thread-safety story; make it "
        "const/constexpr or thread_local, use a sync primitive, or annotate "
        "with MST_GUARDED_BY(mutex)");
  }
}

// ---------------------------------------------------------------------------
// Tree-level passes: the include graph
//
// Layering and cycle detection need every file at once, so they run in
// `lint_tree`, not `lint_source`.  Both parse the raw lines (the code view
// blanks preprocessor directives on purpose).

/// The module layering, as data.  Key: directory under src/mst/.  Value:
/// the modules its headers and sources may include (its own module is
/// always allowed).  This is the single source of truth for the layer DAG;
/// the README diagram is generated from the same order.
const std::vector<std::pair<const char*, std::vector<const char*>>> kLayerDeps = {
    {"common", {}},
    {"obs", {"common"}},
    {"platform", {"common"}},
    {"workload", {"common"}},
    {"schedule", {"common", "platform", "workload"}},
    {"core", {"common", "platform", "workload", "schedule"}},
    {"baselines", {"common", "platform", "workload", "schedule", "core"}},
    {"heuristics", {"common", "platform", "workload", "schedule", "core", "baselines"}},
    {"sim",
     {"common", "obs", "platform", "workload", "schedule", "core", "baselines", "heuristics"}},
    {"analysis",
     {"common", "platform", "workload", "schedule", "core", "baselines", "heuristics", "sim"}},
    {"api",
     {"common", "obs", "platform", "workload", "schedule", "core", "baselines", "heuristics",
      "sim", "analysis"}},
    {"scenario",
     {"common", "obs", "platform", "workload", "schedule", "core", "baselines", "heuristics",
      "sim", "analysis", "api", "scenario/journal"}},
    // The sweep journal is a sub-module with a deliberately narrow surface:
    // persistence code may reach the cell/outcome types it serializes
    // (scenario) and the layers those types are made of (common, obs), but
    // never the solver stack — a journal that can invoke algorithms has
    // stopped being a journal.
    {"scenario/journal", {"common", "obs", "scenario"}},
};

/// Module of a file under the scanned root, or "" when the file is not
/// subject to layering (tools, tests, benches — and the umbrella
/// `src/mst/mst.hpp`, which re-exports every layer by design).
std::string module_of(const std::string& path) {
  static const std::string prefix = "src/mst/";
  if (path.rfind(prefix, 0) != 0) return {};
  const std::size_t slash = path.find('/', prefix.size());
  if (slash == std::string::npos) return {};  // src/mst/mst.hpp umbrella
  std::string module = path.substr(prefix.size(), slash - prefix.size());
  // journal.{hpp,cpp} form their own sub-module of scenario (see
  // kLayerDeps) so the persistence code's include surface is enforced
  // separately from the runner's.
  if (module == "scenario" && path.compare(slash + 1, 8, "journal.") == 0) {
    return "scenario/journal";
  }
  return module;
}

struct IncludeRef {
  int line = 0;
  std::string target;  ///< as written between the quotes
};

/// Quoted project includes, straight off the raw lines.
std::vector<IncludeRef> parse_includes(const std::string& content) {
  static const std::regex kInclude(R"inc(^\s*#\s*include\s*"([^"]+)")inc");
  std::vector<IncludeRef> out;
  std::istringstream is(content);
  std::string line;
  int number = 0;
  while (std::getline(is, line)) {
    ++number;
    std::smatch m;
    if (std::regex_search(line, m, kInclude)) out.push_back({number, m[1]});
  }
  return out;
}

struct FileRecord {
  std::string path;
  std::vector<IncludeRef> includes;
  Directives directives;
  std::vector<std::string> code;    ///< the stripped code view
  std::vector<std::string> macros;  ///< the `#define` lines `code` blanks
};

void check_layering(const std::vector<FileRecord>& records, std::vector<Diagnostic>& out) {
  for (const FileRecord& record : records) {
    const std::string from = module_of(record.path);
    if (from.empty()) continue;
    const auto layer =
        std::find_if(kLayerDeps.begin(), kLayerDeps.end(),
                     [&](const auto& entry) { return from == entry.first; });
    for (const IncludeRef& include : record.includes) {
      const std::string to = module_of("src/" + include.target);
      if (to.empty() || to == from) continue;
      const bool known = layer != kLayerDeps.end();
      const bool allowed =
          known && std::find_if(layer->second.begin(), layer->second.end(),
                                [&](const char* dep) { return to == dep; }) !=
                       layer->second.end();
      if (allowed) continue;
      std::string message = known
          ? "module '" + from + "' may not include '" + to +
                "' (layer order: common -> obs -> platform -> workload -> schedule -> "
                "core -> baselines -> heuristics -> sim -> analysis -> api -> scenario "
                "-> scenario/journal)"
          : "module '" + from + "' is not in the layer table; add it to kLayerDeps in "
            "tools/mstlint/lint.cpp";
      out.push_back({record.path, include.line, "layering", std::move(message)});
    }
  }
}

void check_cycles(const std::vector<FileRecord>& records, std::vector<Diagnostic>& out) {
  // File-level graph over project headers: edges follow `mst/...` includes
  // that resolve to a scanned file.  DFS; every back edge closes a cycle.
  std::map<std::string, const FileRecord*> by_path;
  for (const FileRecord& record : records) by_path[record.path] = &record;

  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::string> stack;

  struct Dfs {
    std::map<std::string, const FileRecord*>& by_path;
    std::map<std::string, Color>& color;
    std::vector<std::string>& stack;
    std::vector<Diagnostic>& out;

    void visit(const std::string& path) {
      color[path] = Color::kGray;
      stack.push_back(path);
      for (const IncludeRef& include : by_path[path]->includes) {
        const std::string target = "src/" + include.target;
        const auto it = by_path.find(target);
        if (it == by_path.end()) continue;
        const Color c = color.count(target) ? color[target] : Color::kWhite;
        if (c == Color::kGray) {
          // Render the cycle from the target's position on the stack.
          std::string chain;
          for (auto at = std::find(stack.begin(), stack.end(), target); at != stack.end();
               ++at) {
            chain += *at + " -> ";
          }
          chain += target;
          out.push_back({path, include.line, "include-cycle",
                         "#include closes a cycle: " + chain});
        } else if (c == Color::kWhite) {
          visit(target);
        }
      }
      stack.pop_back();
      color[path] = Color::kBlack;
    }
  };

  Dfs dfs{by_path, color, stack, out};
  for (const FileRecord& record : records) {
    if (!color.count(record.path)) dfs.visit(record.path);
  }
}

// ---------------------------------------------------------------------------
// Tree-level pass: tests-only API
//
// A token walk over each library header's code view finds the functions it
// declares where a caller can see them (namespace scope, or a `public`
// section of a class every enclosing class also exposes), and the names its
// inline bodies use.  A declared function is used when some non-test file
// other than the header and its same-stem .cpp mentions its name with an
// argument count it accepts (or with no countable call), or an inline body
// of the header mentions its name.

struct Token {
  std::string text;
  int line = 0;
};

bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

std::vector<Token> tokenize(const std::vector<std::string>& code) {
  std::vector<Token> out;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& text = code[li];
    const int line = static_cast<int>(li) + 1;
    for (std::size_t i = 0; i < text.size();) {
      if (std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      } else if (is_ident_char(text[i])) {
        std::size_t j = i;
        while (j < text.size() && is_ident_char(text[j])) ++j;
        out.push_back({text.substr(i, j - i), line});
        i = j;
      } else {
        out.push_back({std::string(1, text[i]), line});
        ++i;
      }
    }
  }
  return out;
}

bool is_identifier(const std::string& text) {
  return !text.empty() && !std::isdigit(static_cast<unsigned char>(text[0])) &&
         is_ident_char(text[0]);
}

/// Argument counts a declaration accepts, `min` (the parameters without a
/// default) through `max` (`kAnyCount` for a variadic one).
struct Arity {
  int min = 0;
  int max = 0;
};

/// A mention's argument count when it is not a countable call.
constexpr int kAnyCount = -1;

struct Declared {
  Token name;  ///< at the line of the name
  Arity arity;
};

struct HeaderApi {
  std::vector<Declared> declared;  ///< public functions
  std::set<std::string> used;      ///< identifiers inside the header's inline bodies
};

/// The argument count of the call whose `(` is `tokens[open]`: top-level
/// commas plus one, 0 for `()`.  `kAnyCount` when `tokens[open]` is not a
/// `(`, or when the arguments hold a `<` (a template argument list may
/// hold commas, a comparison may not close one).
int call_arguments(const std::vector<Token>& tokens, std::size_t open) {
  if (open >= tokens.size() || tokens[open].text != "(") return kAnyCount;
  int depth = 0;
  int commas = 0;
  for (std::size_t k = open; k < tokens.size(); ++k) {
    const std::string& t = tokens[k].text;
    if (t == "<") return kAnyCount;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") {
      if (--depth > 0) continue;
      return k == open + 1 ? 0 : commas + 1;
    }
    if (t == "," && depth == 1) ++commas;
  }
  return kAnyCount;  // unbalanced
}

/// The argument counts a declaration accepts, from its parameter list
/// `head[open]` = `(` through the matching `)`.
Arity declared_arity(const std::vector<Token>& head, std::size_t open) {
  Arity arity;
  int depth = 0;
  bool empty = true;
  bool defaulted = false;  // the current parameter has a default
  const auto close_parameter = [&] {
    if (!defaulted) arity.min = arity.max + 1;
    ++arity.max;
    defaulted = false;
  };
  for (std::size_t k = open; k < head.size(); ++k) {
    const std::string& t = head[k].text;
    if (t == "(" || t == "[" || t == "{" || t == "<") {
      ++depth;
      continue;
    }
    if (t == ")" || t == "]" || t == "}" || t == ">") {
      if (--depth > 0) continue;
      if (!empty) close_parameter();
      break;
    }
    if (depth != 1) continue;
    if (t == ",") {
      close_parameter();
    } else if (t == "=") {
      defaulted = true;
    } else if (t == "." && k + 2 < head.size() && head[k + 1].text == "." &&
               head[k + 2].text == ".") {
      arity.max = kAnyCount;  // variadic: the rest is unbounded
      return arity;
    } else if (!(t == "void" && empty && k + 1 < head.size() && head[k + 1].text == ")")) {
      empty = false;
    }
  }
  return arity;
}

bool accepts(const Arity& arity, int arguments) {
  return arguments == kAnyCount ||
         (arguments >= arity.min && (arity.max == kAnyCount || arguments <= arity.max));
}

/// Index of the first token after a leading `template <...>` (0 if none).
std::size_t after_template(const std::vector<Token>& head) {
  if (head.empty() || head[0].text != "template") return 0;
  int depth = 0;
  for (std::size_t i = 1; i < head.size(); ++i) {
    if (head[i].text == "<") ++depth;
    if (head[i].text == ">" && --depth == 0) return i + 1;
  }
  return head.size();
}

/// The function a statement head declares, if it declares one that the
/// rule judges: not a constructor, destructor, operator, macro, `virtual`
/// or `override` method, or `= default`/`= delete` member.
const Token* declared_function(const std::vector<Token>& head, const std::string& class_name) {
  // Keywords that take parentheses at the start of a declaration.
  static const std::set<std::string> kNotNames = {"static_assert", "alignas", "decltype"};
  const std::size_t i = after_template(head);
  std::size_t open = head.size();
  int angle = 0;
  for (std::size_t k = i; k < head.size(); ++k) {
    const std::string& t = head[k].text;
    if (t == "=" || t == "using" || t == "typedef") return nullptr;  // not a function
    if (t == "<") ++angle;
    if (t == ">") angle = std::max(0, angle - 1);
    if (t == "(" && angle == 0) {
      open = k;
      break;
    }
  }
  if (open == head.size() || open == i) return nullptr;
  const Token& name = head[open - 1];
  if (!is_identifier(name.text) || kNotNames.count(name.text) || name.text == "operator" ||
      name.text == class_name) {
    return nullptr;
  }
  if (std::all_of(name.text.begin(), name.text.end(),
                  [](char c) { return std::isupper(static_cast<unsigned char>(c)) || c == '_' ||
                                      std::isdigit(static_cast<unsigned char>(c)); })) {
    return nullptr;  // macro invocation
  }
  if (open >= i + 2) {
    const std::string& before = head[open - 2].text;
    if (before == "operator" || before == "~" || before == ":") return nullptr;
  }
  for (std::size_t k = open; k < head.size(); ++k) {
    const std::string& t = head[k].text;
    if (t == "default" || t == "delete" || t == "override") return nullptr;
  }
  for (std::size_t k = i; k < open; ++k) {
    if (head[k].text == "virtual" || head[k].text == "explicit") return nullptr;
  }
  return &name;
}

HeaderApi scan_header_api(const std::vector<std::string>& code) {
  enum class Scope { kNamespace, kClass, kBody };
  struct Frame {
    Scope scope;
    bool visible;          ///< a caller outside the header can name members here
    bool parent_visible;
    std::string class_name;
  };
  HeaderApi out;
  const std::vector<Token> tokens = tokenize(code);
  std::vector<Frame> stack = {{Scope::kNamespace, true, true, ""}};
  std::vector<Token> head;
  int paren = 0;
  const auto consider = [&] {
    const Frame& top = stack.back();
    if (top.scope == Scope::kBody || !top.visible) return;
    if (const Token* name = declared_function(head, top.class_name)) {
      const auto open = static_cast<std::size_t>(name - head.data()) + 1;
      out.declared.push_back({*name, declared_arity(head, open)});
    }
  };
  const auto has = [&](const char* word) {
    return std::any_of(head.begin(), head.end(), [&](const Token& t) { return t.text == word; });
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    Frame& top = stack.back();
    if (top.scope == Scope::kBody) {
      if (t.text == "{") {
        stack.push_back({Scope::kBody, false, false, ""});
      } else if (t.text == "}") {
        stack.pop_back();
      } else if (is_identifier(t.text)) {
        out.used.insert(t.text);
      }
      continue;
    }
    if (paren > 0 || t.text == "(") {
      if (t.text == "(") ++paren;
      if (t.text == ")") --paren;
      head.push_back(t);
      continue;
    }
    if (t.text == ";") {
      consider();
      head.clear();
    } else if (t.text == "{") {
      // What the brace opens: a namespace, a class, or a body to skip (a
      // function, enum or initializer).  A template prefix may name `class`.
      const auto key = std::find_if(
          head.begin() + static_cast<std::ptrdiff_t>(after_template(head)), head.end(),
          [](const Token& k) {
            return k.text == "class" || k.text == "struct" || k.text == "union";
          });
      if (has("namespace")) {
        const bool anonymous = head.back().text == "namespace";
        stack.push_back({Scope::kNamespace, top.visible && !anonymous, top.visible, ""});
      } else if (key != head.end() && !has("enum") && !has("(") && !has("=")) {
        std::string name;
        for (auto it = key + 1; it != head.end() && name.empty(); ++it) {
          if (is_identifier(it->text) && it->text != "final") name = it->text;
        }
        const bool open_access = key->text != "class";
        stack.push_back({Scope::kClass, top.visible && open_access, top.visible, name});
      } else {
        consider();  // an inline definition declares its function too
        stack.push_back({Scope::kBody, false, false, ""});
      }
      head.clear();
    } else if (t.text == "}") {
      if (stack.size() > 1) stack.pop_back();
      head.clear();
    } else if (top.scope == Scope::kClass && head.empty() &&
               (t.text == "public" || t.text == "private" || t.text == "protected") &&
               i + 1 < tokens.size() && tokens[i + 1].text == ":") {
      top.visible = top.parent_visible && t.text == "public";
      ++i;  // the label's colon
    } else {
      head.push_back(t);
    }
  }
  return out;
}

/// Per identifier, the non-test files that mention it, each with the
/// mention's argument count (`kAnyCount` for a mention that is not a
/// countable call).
using ReferenceIndex = std::map<std::string, std::set<std::pair<std::string, int>>>;

void check_tests_only_api(const std::vector<FileRecord>& records,
                          const ReferenceIndex& references, std::vector<Diagnostic>& out) {
  for (const FileRecord& record : records) {
    const std::string& path = record.path;
    if (path.rfind("src/mst/", 0) != 0 || path.size() < 4 ||
        path.compare(path.size() - 4, 4, ".hpp") != 0) {
      continue;
    }
    HeaderApi api = scan_header_api(record.code);
    for (const Token& t : tokenize(record.macros)) api.used.insert(t.text);  // macro bodies
    const std::string source = path.substr(0, path.size() - 4) + ".cpp";  // same stem
    for (const auto& [name, arity] : api.declared) {
      if (api.used.count(name.text)) continue;
      const auto it = references.find(name.text);
      const bool used_elsewhere =
          it != references.end() &&
          std::any_of(it->second.begin(), it->second.end(), [&](const auto& mention) {
            return mention.first != path && mention.first != source &&
                   accepts(arity, mention.second);
          });
      if (used_elsewhere) continue;
      out.push_back({path, name.line, "tests-only-api",
                     "'" + name.text + "' is public, but nothing outside tests/ (and its own "
                     "header/.cpp) references it: delete it, make it file-local, move it to "
                     "tests/support/, or allow it naming the ROADMAP item that will call it"});
    }
  }
}

/// Which non-test files mention each identifier, and with how many
/// arguments, from the scanned records plus the reference-only files under
/// `perfbench/`.
ReferenceIndex reference_index(const std::string& root, const std::vector<FileRecord>& records) {
  namespace fs = std::filesystem;
  ReferenceIndex index;
  const auto add_file = [&](const std::string& path, const std::vector<std::string>& code) {
    const std::vector<Token> tokens = tokenize(code);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (is_identifier(tokens[i].text)) {
        index[tokens[i].text].emplace(path, call_arguments(tokens, i + 1));
      }
    }
  };
  for (const FileRecord& record : records) {
    if (record.path.rfind("tests/", 0) != 0) {
      add_file(record.path, record.code);
      add_file(record.path, record.macros);
    }
  }
  const fs::path bench = fs::path(root) / "perfbench";
  if (fs::exists(bench)) {
    for (const auto& entry : fs::recursive_directory_iterator(bench)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".hpp")) continue;
      std::ifstream is(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << is.rdbuf();
      const Stripped stripped = strip(buffer.str());
      const std::string path = fs::relative(entry.path(), root).generic_string();
      add_file(path, stripped.code);
      add_file(path, stripped.macros);
    }
  }
  return index;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface

const std::vector<RuleInfo>& rules() { return kRules; }

bool known_rule(const std::string& id) {
  for (const RuleInfo& rule : kRules) {
    if (id == rule.id) return true;
  }
  return false;
}

std::vector<Diagnostic> lint_source(const std::string& path, const std::string& content) {
  const Stripped stripped = strip(content);
  const Directives directives = parse_directives(path, stripped.raw);

  std::vector<Diagnostic> found;
  if (!float_rules_allowlisted(path)) {
    rule_lossy_format(path, stripped, found);
    rule_stream_precision(path, stripped, found);
    rule_raw_double_stream(path, stripped, found);
  }
  rule_ambient_rng(path, stripped, found);
  rule_unordered(path, stripped, found);
  rule_zero_alloc(path, stripped, directives, found);
  if (registry_rule_applies(path)) rule_registry_supports(path, stripped, found);
  if (shared_state_rule_applies(path)) rule_shared_mutable_state(path, stripped, found);

  std::vector<Diagnostic> out;
  for (Diagnostic& d : found) {
    if (!suppressed(directives, d.line, d.rule)) out.push_back(std::move(d));
  }
  // Meta-diagnostics (malformed directives, missing justifications) are
  // never suppressible.
  for (const Diagnostic& d : directives.errors) out.push_back(d);
  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return a.line < b.line;
  });
  return out;
}

std::vector<Diagnostic> lint_tree(const std::string& root, std::vector<std::string>* scanned) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const fs::path rel = fs::relative(entry.path(), root);
      const std::string rel_str = rel.generic_string();
      // The analyzer's own sources spell the banned tokens as rule data;
      // its test and the fixture corpus spell the violations as data.
      if (rel_str.rfind("tools/mstlint/", 0) == 0) continue;
      if (rel_str.rfind("tests/data/lint/", 0) == 0) continue;
      if (rel_str == "tests/test_lint.cpp") continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      files.push_back(rel_str);
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Diagnostic> out;
  std::vector<FileRecord> records;
  records.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream is(fs::path(root) / file, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string content = buffer.str();
    std::vector<Diagnostic> diags = lint_source(file, content);
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
    FileRecord record;
    record.path = file;
    record.includes = parse_includes(content);
    Stripped stripped = strip(content);
    record.directives = parse_directives(file, stripped.raw);
    record.code = std::move(stripped.code);
    record.macros = std::move(stripped.macros);
    records.push_back(std::move(record));
    if (scanned != nullptr) scanned->push_back(file);
  }

  // Tree-level passes (include graph, tests-only API); suppressions apply at
  // the flagged #include's or declaration's own file:line.
  std::vector<Diagnostic> graph;
  check_layering(records, graph);
  check_cycles(records, graph);
  check_tests_only_api(records, reference_index(root, records), graph);
  std::map<std::string, const FileRecord*> by_path;
  for (const FileRecord& record : records) by_path[record.path] = &record;
  for (Diagnostic& d : graph) {
    if (!suppressed(by_path[d.file]->directives, d.line, d.rule)) out.push_back(std::move(d));
  }
  std::stable_sort(out.begin(), out.end(), [](const Diagnostic& a, const Diagnostic& b) {
    return a.file != b.file ? a.file < b.file : a.line < b.line;
  });
  return out;
}

std::string render(const Diagnostic& diagnostic) {
  std::ostringstream os;
  os << diagnostic.file << ':' << diagnostic.line << ": error: " << diagnostic.message << " ["
     << diagnostic.rule << ']';
  return os.str();
}

}  // namespace mstlint
