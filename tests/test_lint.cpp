// mstlint's own suite: the fixture corpus in tests/data/lint/ pins what
// each rule catches and what it must leave alone, the suppression grammar
// round-trips, diagnostics render in GCC format, and the real tree is
// clean (the in-process twin of the `mstlint_repo` ctest, which also
// asserts the binary's exit code).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

using mstlint::Diagnostic;

std::string fixture_path(const std::string& name) {
  return std::string(MST_LINT_DATA_DIR) + "/" + name;
}

std::vector<Diagnostic> lint_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return mstlint::lint_source(name, buffer.str());
}

/// (rule, line) pairs, sorted — order-insensitive fixture comparison.
std::vector<std::pair<std::string, int>> outline(const std::vector<Diagnostic>& diags) {
  std::vector<std::pair<std::string, int>> out;
  out.reserve(diags.size());
  for (const Diagnostic& d : diags) out.emplace_back(d.rule, d.line);
  std::sort(out.begin(), out.end());
  return out;
}

using Outline = std::vector<std::pair<std::string, int>>;

TEST(LintRules, TableIsWellFormed) {
  std::set<std::string> ids;
  for (const mstlint::RuleInfo& rule : mstlint::rules()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
    EXPECT_TRUE(mstlint::known_rule(rule.id));
    EXPECT_STRNE(rule.summary, "");
    EXPECT_STRNE(rule.rationale, "");
  }
  EXPECT_FALSE(mstlint::known_rule("no-such-rule"));
  EXPECT_GE(ids.size(), 11u);
  // The v2 graph and shared-state rules are present and suppressible.
  EXPECT_TRUE(mstlint::known_rule("layering"));
  EXPECT_TRUE(mstlint::known_rule("include-cycle"));
  EXPECT_TRUE(mstlint::known_rule("shared-mutable-state"));
  EXPECT_TRUE(mstlint::known_rule("tests-only-api"));
}

TEST(LintRules, LossyFloatFormats) {
  const Outline expected = {
      {"lossy-float-format", 7},  {"lossy-float-format", 8},
      {"lossy-float-format", 9},  {"lossy-float-format", 9},
      {"stream-precision", 12},   {"stream-precision", 13},
  };
  EXPECT_EQ(outline(lint_fixture("lossy_format.cpp")), expected);
}

TEST(LintRules, RawDoubleStreams) {
  const Outline expected = {
      {"raw-double-stream", 6},
      {"raw-double-stream", 7},
  };
  EXPECT_EQ(outline(lint_fixture("raw_double_stream.cpp")), expected);
}

TEST(LintRules, AmbientRngSources) {
  const Outline expected = {
      {"ambient-rng", 7},  // srand
      {"ambient-rng", 7},  // time(nullptr)
      {"ambient-rng", 8},  {"ambient-rng", 9},  {"ambient-rng", 10},
  };
  EXPECT_EQ(outline(lint_fixture("ambient_rng.cpp")), expected);
}

TEST(LintRules, UnorderedContainers) {
  const Outline expected = {
      {"unordered-container", 6},
      {"unordered-container", 7},
  };
  EXPECT_EQ(outline(lint_fixture("unordered.cpp")), expected);
}

TEST(LintRules, ZeroAllocRegions) {
  const Outline expected = {
      {"zero-alloc", 11},  // naked new
      {"zero-alloc", 12},  // vector value declaration
      {"zero-alloc", 13},  // string value declaration
      {"zero-alloc", 13},  // to_string
  };
  EXPECT_EQ(outline(lint_fixture("zero_alloc.cpp")), expected);
}

TEST(LintRules, ZeroAllocRegionsBanThreadLocal) {
  // Hidden per-thread statics inside a region are flagged; the sanctioned
  // fallback helper outside the region stays clean.
  const Outline expected = {
      {"zero-alloc", 19},  // thread_local counter
      {"zero-alloc", 20},  // thread_local scratch object
  };
  EXPECT_EQ(outline(lint_fixture("zero_alloc_thread_local.cpp")), expected);
}

TEST(LintRules, RegistrySupportsFieldCount) {
  const Outline expected = {
      {"registry-supports", 4},
      {"registry-supports", 6},
  };
  EXPECT_EQ(outline(lint_fixture("registry_fixture.cpp")), expected);
}

TEST(LintRules, SharedMutableState) {
  const Outline expected = {
      {"shared-mutable-state", 10},  // bad_counter
      {"shared-mutable-state", 11},  // bad_total
      {"shared-mutable-state", 12},  // bad_table (multi-line declaration)
  };
  EXPECT_EQ(outline(lint_fixture("shared_state.cpp")), expected);
}

TEST(LintRules, SharedMutableStateScopedToLibraryPaths) {
  // The rule patrols src/ (and the fixture marker); tests and drivers are
  // single-threaded and keep their statics.
  const std::string source = "static int counter = 0;\n";
  EXPECT_EQ(mstlint::lint_source("src/mst/core/x.cpp", source).size(), 1u);
  EXPECT_TRUE(mstlint::lint_source("tests/test_x.cpp", source).empty());
  EXPECT_TRUE(mstlint::lint_source("bench/exp_x.cpp", source).empty());
}

TEST(LintRules, CleanFixtureIsClean) {
  EXPECT_EQ(lint_fixture("clean.cpp"), std::vector<Diagnostic>{});
}

TEST(LintTree, LayeringFixtureTree) {
  // One upward edge fires; the second upward edge carries a justified
  // allow-next-line and must stay silent; the downward edges are legal.
  const std::vector<Diagnostic> diags = mstlint::lint_tree(fixture_path("layertree"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].file, "src/mst/core/solver.hpp");
  EXPECT_EQ(diags[0].line, 6);
  EXPECT_NE(diags[0].message.find("'core' may not include 'api'"), std::string::npos);
}

TEST(LintTree, ObsLayerFixtureTree) {
  // The observability layer sits just above common: its downward include is
  // legal, and an include of any consumer layer (api here) fires — the obs
  // core must stay ignorant of who instruments with it.
  const std::vector<Diagnostic> diags = mstlint::lint_tree(fixture_path("obstree"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].file, "src/mst/obs/sink.hpp");
  EXPECT_EQ(diags[0].line, 6);
  EXPECT_NE(diags[0].message.find("'obs' may not include 'api'"), std::string::npos);
}

TEST(LintTree, JournalLayerFixtureTree) {
  // journal.* is its own sub-module ('scenario/journal') with a narrower
  // surface than scenario: the runner may include the journal and the
  // journal may include the scenario types it serializes, but an include
  // into the solver stack (sim) fires — persistence code must not be able
  // to invoke algorithms.
  const std::vector<Diagnostic> diags = mstlint::lint_tree(fixture_path("journaltree"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layering");
  EXPECT_EQ(diags[0].file, "src/mst/scenario/journal.hpp");
  EXPECT_EQ(diags[0].line, 9);
  EXPECT_NE(diags[0].message.find("'scenario/journal' may not include 'sim'"),
            std::string::npos);
}

TEST(LintTree, IncludeCycleFixtureTree) {
  const std::vector<Diagnostic> diags = mstlint::lint_tree(fixture_path("cycletree"));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-cycle");
  EXPECT_EQ(diags[0].file, "src/mst/common/b.hpp");
  EXPECT_EQ(diags[0].line, 3);
  EXPECT_NE(diags[0].message.find("src/mst/common/a.hpp -> src/mst/common/b.hpp -> "
                                  "src/mst/common/a.hpp"),
            std::string::npos);
}

TEST(LintTree, TestsOnlyApiFixtureTree) {
  // Of the header's public functions only `flagged` and the two-argument
  // `overloaded` fire: their one caller outside their own header and source
  // is under tests/.  The one-argument `overloaded` is called from tools/,
  // which does not clear its sibling: functions are keyed by name and
  // parameter count.  `defaulted` is called with fewer arguments than it
  // has parameters, which its default admits.  The allowed name, the names
  // with a caller in tools/ or perfbench/ (or in an inline body of the
  // header), and constructors, operators, virtual, defaulted and private
  // members stay silent, and perfbench/ is never linted itself.
  const std::vector<Diagnostic> diags = mstlint::lint_tree(fixture_path("apitree"));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, "tests-only-api");
  EXPECT_EQ(diags[0].file, "src/mst/core/api.hpp");
  EXPECT_EQ(diags[0].line, 13);
  EXPECT_NE(diags[0].message.find("'flagged'"), std::string::npos);
  EXPECT_EQ(diags[1].rule, "tests-only-api");
  EXPECT_EQ(diags[1].file, "src/mst/core/api.hpp");
  EXPECT_EQ(diags[1].line, 19);
  EXPECT_NE(diags[1].message.find("'overloaded'"), std::string::npos);
}

TEST(LintSuppressions, JustifiedAllowSilences) {
  EXPECT_EQ(lint_fixture("suppressed_ok.cpp"), std::vector<Diagnostic>{});
}

TEST(LintSuppressions, UnjustifiedAllowIsTheOnlyDiagnostic) {
  const std::vector<Diagnostic> diags = lint_fixture("suppression_unjustified.cpp");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "allow-justification");
  EXPECT_EQ(diags[0].line, 6);
}

TEST(LintSuppressions, MalformedDirectives) {
  const Outline expected = {
      {"bad-directive", 2},  // unknown rule name
      {"bad-directive", 3},  // unrecognized directive
      {"bad-directive", 4},  // unclosed zero-alloc region
  };
  EXPECT_EQ(outline(lint_fixture("bad_directive.cpp")), expected);
}

TEST(LintSuppressions, RoundTrip) {
  // A diagnostic, its per-line suppression, and the next-line form — built
  // from strings so the test is self-contained.
  const std::string bare = "int f() { return rand(); }\n";
  const std::string same_line =
      "int f() { return rand(); }  // mstlint: allow(ambient-rng) -- test stub\n";
  const std::string next_line =
      "// mstlint: allow-next-line(ambient-rng) -- test stub\n"
      "int f() { return rand(); }\n";
  EXPECT_EQ(mstlint::lint_source("a.cpp", bare).size(), 1u);
  EXPECT_TRUE(mstlint::lint_source("a.cpp", same_line).empty());
  EXPECT_TRUE(mstlint::lint_source("a.cpp", next_line).empty());
  // The suppression only covers the named rule.
  const std::string wrong_rule =
      "int f() { return rand(); }  // mstlint: allow(unordered-container) -- wrong rule\n";
  EXPECT_EQ(mstlint::lint_source("a.cpp", wrong_rule).size(), 1u);
}

TEST(LintSuppressions, SharedMutableStateRoundTrip) {
  const std::string bare = "static int counter = 0;\n";
  const std::string same_line =
      "static int counter = 0;  // mstlint: allow(shared-mutable-state) -- set before spawn\n";
  EXPECT_EQ(mstlint::lint_source("src/mst/core/x.cpp", bare).size(), 1u);
  EXPECT_TRUE(mstlint::lint_source("src/mst/core/x.cpp", same_line).empty());
}

TEST(LintFormat, RenderIsGccStyle) {
  const Diagnostic d{"src/mst/foo.cpp", 42, "ambient-rng", "the message"};
  EXPECT_EQ(mstlint::render(d), "src/mst/foo.cpp:42: error: the message [ambient-rng]");
}

TEST(LintTree, RepositoryIsClean) {
  std::vector<std::string> scanned;
  const std::vector<Diagnostic> diags = mstlint::lint_tree(MST_REPO_ROOT, &scanned);
  for (const Diagnostic& d : diags) ADD_FAILURE() << mstlint::render(d);
  // The walk visits the real tree (library + tools + drivers + tests),
  // skips the analyzer's own sources and the intentional-violation corpus,
  // and is deterministic (sorted paths).
  EXPECT_GE(scanned.size(), 100u);
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  const auto none_under = [&](const char* prefix) {
    return std::count_if(scanned.begin(), scanned.end(), [&](const std::string& p) {
             return p.rfind(prefix, 0) == 0;
           }) == 0;
  };
  EXPECT_TRUE(none_under("tools/mstlint/"));
  EXPECT_TRUE(none_under("tests/data/lint/"));
  EXPECT_TRUE(std::find(scanned.begin(), scanned.end(), "tests/test_lint.cpp") ==
              scanned.end());
  // tests/ itself IS scanned (the corpus exclusion is surgical).
  EXPECT_TRUE(std::find(scanned.begin(), scanned.end(), "tests/test_registry.cpp") !=
              scanned.end());
}

}  // namespace
