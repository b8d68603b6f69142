#pragma once

#include <string>
#include <vector>

/// \file lint.hpp
/// Repo-specific static analysis for the master-slave tasking library.
///
/// The repo earned three hard invariants the usual compilers cannot check:
/// byte-identical sweep output at any thread count, round-trip-exact
/// `%.17g` numeric rendering, and allocation-free counting hot paths.  Each
/// was guarded only by hand-written tests and review discipline; `mstlint`
/// turns them into machine-checked rules over the source tree.
///
/// The analyzer is deliberately token/regex-level (comment- and
/// string-aware, but no preprocessor and no libclang): every rule below is
/// decidable on the stripped token stream, diagnostics are exact
/// `file:line`, and the binary builds in milliseconds with zero
/// dependencies, so it runs as a ctest on every build.
///
/// Suppressions are per line and must carry a justification:
///
///     seed = mix(time_now);  // mstlint: allow(ambient-rng) -- replays a recorded trace
///
/// A suppression without the ` -- reason` text is itself a diagnostic.

namespace mstlint {

/// One finding.  Rendered GCC-style: `file:line: error: message [rule]`.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// Rule metadata for `--list-rules` and the README table.
struct RuleInfo {
  const char* id;
  const char* summary;
  const char* rationale;
};

/// Every rule the analyzer knows, in reporting order.
const std::vector<RuleInfo>& rules();

/// True if `id` names a known rule (valid inside `allow(...)`).
bool known_rule(const std::string& id);

/// Lints one translation unit.  `path` is used for reporting and for the
/// per-rule scoping decisions (allowlists match on normalized forward-slash
/// paths), `content` is the raw file text.
std::vector<Diagnostic> lint_source(const std::string& path, const std::string& content);

/// Walks `src/`, `tools/`, `bench/`, `examples/` and `tests/` under
/// `root`, linting every `.cpp`/`.hpp`, then runs the tree-level passes:
/// module layering and include cycles over the project include graph, and
/// the tests-only API check, which also reads `perfbench/` for references
/// (never linting it).
/// Skipped by design: `tools/mstlint/` (the rule table spells the banned
/// tokens out as data), `tests/data/lint/` and `tests/test_lint.cpp` (the
/// intentional-violation corpus and the fixtures embedded in the lint
/// test).  When `scanned` is non-null the visited relative paths are
/// appended to it (for the self-test).
std::vector<Diagnostic> lint_tree(const std::string& root,
                                  std::vector<std::string>* scanned = nullptr);

/// `file:line: error: message [rule]`.
std::string render(const Diagnostic& diagnostic);

}  // namespace mstlint
