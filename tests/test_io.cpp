// Unit tests for the plain-text platform format.

#include <gtest/gtest.h>

#include <stdexcept>
#include <variant>
#include <vector>

#include "mst/api/platform_io.hpp"
#include "mst/platform/io.hpp"

namespace mst {
namespace {

Tree branching_tree() {
  Tree tree;
  const NodeId trunk = tree.add_node(0, {2, 3});
  tree.add_node(trunk, {1, 2});
  tree.add_node(trunk, {2, 4});
  tree.add_node(0, {3, 2});
  return tree;
}

TEST(Io, ChainRoundTrip) {
  const Chain chain = Chain::from_vectors({2, 3, 4}, {3, 5, 7});
  EXPECT_EQ(parse_chain(write_chain(chain)), chain);
}

TEST(Io, ForkRoundTrip) {
  const Fork fork({Processor{1, 2}, Processor{3, 4}, Processor{5, 6}});
  EXPECT_EQ(parse_fork(write_fork(fork)), fork);
}

TEST(Io, SpiderRoundTrip) {
  const Spider spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})};
  EXPECT_EQ(parse_spider(write_spider(spider)), spider);
}

TEST(Io, ParsesWithCommentsAndWhitespace) {
  const std::string text = R"(
# a 2-processor chain
chain 2
  2 3   # first processor
  3 5
)";
  const Chain chain = parse_chain(text);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.comm(1), 3);
  EXPECT_EQ(chain.work(1), 5);
}

TEST(Io, TreeRoundTrip) {
  const Tree tree = branching_tree();
  const Tree parsed = parse_tree(write_tree(tree));
  ASSERT_EQ(parsed.size(), tree.size());
  for (NodeId v = 1; v < tree.size(); ++v) {
    EXPECT_EQ(parsed.parent(v), tree.parent(v));
    EXPECT_EQ(parsed.proc(v), tree.proc(v));
  }
  EXPECT_EQ(write_tree(parsed), write_tree(tree));
}

TEST(Io, ParsesTreeWithCommentsAndForwardParents) {
  const std::string text = R"(
# a chain hanging off a star
tree 3
0 2 3   # first slave under the master
1 1 2
0 4 5
)";
  const Tree tree = parse_tree(text);
  ASSERT_EQ(tree.num_slaves(), 3u);
  EXPECT_EQ(tree.parent(2), 1u);
  EXPECT_EQ(tree.parent(3), 0u);
  EXPECT_EQ(tree.proc(3).work, 5);
}

TEST(Io, TreeRejectsInvalidParents) {
  // A slave may only attach to the master or an earlier slave.
  EXPECT_THROW(parse_tree("tree 2\n0 1 2\n3 1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_tree("tree 1\n-1 1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_tree("tree 2\n2 1 2\n0 1 2\n"), std::invalid_argument);
  // Self-parent is caught by the parser itself, with the slave id named.
  try {
    parse_tree("tree 2\n0 1 2\n2 1 2\n");
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("slave 2"), std::string::npos) << e.what();
  }
}

// The typed parser keeps the platform kind: a chain file must dispatch to
// chain algorithms, not to a one-leg spider embedding.
TEST(Io, ParseAnyPlatformPreservesTheKind) {
  const api::Platform chain = api::parse_any_platform("chain 1\n4 5\n");
  EXPECT_TRUE(std::holds_alternative<Chain>(chain));

  const api::Platform fork = api::parse_any_platform("fork 2\n1 2\n3 4\n");
  ASSERT_TRUE(std::holds_alternative<Fork>(fork));
  EXPECT_EQ(std::get<Fork>(fork).size(), 2u);

  const api::Platform spider = api::parse_any_platform("spider 1\nleg 2\n1 2\n3 4\n");
  ASSERT_TRUE(std::holds_alternative<Spider>(spider));
  EXPECT_EQ(std::get<Spider>(spider).leg(0).size(), 2u);

  const api::Platform tree = api::parse_any_platform("tree 2\n0 1 2\n1 3 4\n");
  ASSERT_TRUE(std::holds_alternative<Tree>(tree));
  EXPECT_EQ(std::get<Tree>(tree).num_slaves(), 2u);
}

TEST(Io, WritePlatformRoundTripsEveryAlternative) {
  const std::vector<api::Platform> platforms{
      Chain::from_vectors({2, 3}, {3, 5}),
      Fork({Processor{1, 2}, Processor{3, 4}}),
      Spider{Chain::from_vectors({2, 3}, {3, 5}), Chain::from_vectors({4}, {2})},
      branching_tree(),
  };
  for (const api::Platform& platform : platforms) {
    const std::string text = api::write_platform(platform);
    const api::Platform reparsed = api::parse_any_platform(text);
    EXPECT_EQ(api::kind_of(reparsed), api::kind_of(platform));
    EXPECT_EQ(api::write_platform(reparsed), text);
    EXPECT_EQ(peek_platform_kind(text), to_string(api::kind_of(platform)));
  }
}

TEST(Io, RejectsUnknownKeyword) {
  EXPECT_THROW(api::parse_any_platform("mesh 2\n1 2\n3 4\n"), std::invalid_argument);
  EXPECT_THROW(api::parse_any_platform(""), std::invalid_argument);
  EXPECT_THROW(parse_chain("fork 1\n1 2\n"), std::invalid_argument);
}

TEST(Io, RejectsTruncatedInput) {
  EXPECT_THROW(parse_chain("chain 2\n1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_chain("chain"), std::invalid_argument);
  EXPECT_THROW(parse_spider("spider 2\nleg 1\n1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_tree("tree 2\n0 1 2\n"), std::invalid_argument);
}

TEST(Io, RejectsTrailingGarbage) {
  EXPECT_THROW(parse_chain("chain 1\n1 2\nextra"), std::invalid_argument);
}

TEST(Io, RejectsNonNumericValues) {
  EXPECT_THROW(parse_chain("chain 1\nx 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_chain("chain one\n1 2\n"), std::invalid_argument);
}

TEST(Io, RejectsInvalidProcessorValues) {
  // The platform validation layer still applies after parsing.
  EXPECT_THROW(parse_chain("chain 1\n1 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_chain("chain 1\n-1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_chain("chain 0\n"), std::invalid_argument);
}

TEST(Io, HeaderCountsBeyondTheFileEndAtItsEnd) {
  // A count the file cannot back is read up to the file's end and rejected
  // there, never reserved up front (10^12 processors would not fit).
  EXPECT_THROW(parse_chain("chain 1000000000000\n1 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_fork("fork 1000000000000\n1 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_spider("spider 1000000000000\nleg 1\n1 1\n"), std::invalid_argument);
}

TEST(Io, ErrorsMentionLineNumbers) {
  try {
    parse_chain("chain 1\nbad 2\n");
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace mst
