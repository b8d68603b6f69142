#include "mst/platform/io.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

std::vector<Processor> read_proc_list(Lexer& lex, std::size_t p) {
  std::vector<Processor> procs;
  procs.reserve(std::min(p, lex.remaining() / 2));  // a processor is 2 tokens
  for (std::size_t i = 0; i < p; ++i) {
    const Time c = lex.next_time("link latency");
    const Time w = lex.next_time("processing time");
    procs.push_back({c, w});
  }
  return procs;
}

void write_proc_list(std::ostringstream& os, const std::vector<Processor>& procs) {
  for (const Processor& p : procs) os << p.comm << ' ' << p.work << '\n';
}

Fork read_fork(Lexer& lex) {
  lex.expect("fork");
  const std::size_t p = lex.next_count("slave count");
  return Fork(read_proc_list(lex, p));
}

Tree read_tree(Lexer& lex) {
  lex.expect("tree");
  const std::size_t slaves = lex.next_count("slave count");
  Tree tree;
  for (std::size_t i = 1; i <= slaves; ++i) {
    const Time parent = lex.next_time("parent id");
    MST_REQUIRE(parent >= 0 && static_cast<std::size_t>(parent) < i,
                "slave " + std::to_string(i) + ": parent must be 0 (the master) or an earlier "
                "slave id, got " + std::to_string(parent));
    const Time c = lex.next_time("link latency");
    const Time w = lex.next_time("processing time");
    tree.add_node(static_cast<NodeId>(parent), Processor{c, w});
  }
  return tree;
}

/// The platform `read` finds in `text`, which must hold nothing else.
template <class Read>
auto parse_whole(const std::string& text, Read read) {
  Lexer lex(text);
  auto platform = read(lex);
  lex.expect_end();
  return platform;
}

}  // namespace

std::string write_chain(const Chain& chain) {
  std::ostringstream os;
  os << "chain " << chain.size() << '\n';
  write_proc_list(os, chain.procs());
  return os.str();
}

std::string write_fork(const Fork& fork) {
  std::ostringstream os;
  os << "fork " << fork.size() << '\n';
  write_proc_list(os, fork.slaves());
  return os.str();
}

std::string write_spider(const Spider& spider) {
  std::ostringstream os;
  os << "spider " << spider.num_legs() << '\n';
  for (const Chain& leg : spider.legs()) {
    os << "leg " << leg.size() << '\n';
    write_proc_list(os, leg.procs());
  }
  return os.str();
}

std::string write_tree(const Tree& tree) {
  std::ostringstream os;
  os << "tree " << tree.num_slaves() << '\n';
  // One line per slave in id order; `add_node` assigns ids sequentially, so
  // parents always precede children and `parse_tree` can rebuild verbatim.
  for (NodeId v = 1; v < tree.size(); ++v) {
    os << tree.parent(v) << ' ' << tree.proc(v).comm << ' ' << tree.proc(v).work << '\n';
  }
  return os.str();
}

Chain read_chain(Lexer& lex) {
  lex.expect("chain");
  const std::size_t p = lex.next_count("processor count");
  return Chain(read_proc_list(lex, p));
}

Spider read_spider(Lexer& lex) {
  lex.expect("spider");
  const std::size_t legs = lex.next_count("leg count");
  std::vector<Chain> chains;
  chains.reserve(std::min(legs, lex.remaining() / 4));  // a leg is 4+ tokens
  for (std::size_t l = 0; l < legs; ++l) {
    lex.expect("leg");
    const std::size_t p = lex.next_count("leg length");
    chains.emplace_back(read_proc_list(lex, p));
  }
  return Spider(std::move(chains));
}

Chain parse_chain(const std::string& text) { return parse_whole(text, read_chain); }
Fork parse_fork(const std::string& text) { return parse_whole(text, read_fork); }
Spider parse_spider(const std::string& text) { return parse_whole(text, read_spider); }
Tree parse_tree(const std::string& text) { return parse_whole(text, read_tree); }

std::string peek_platform_kind(const std::string& text) {
  return Lexer(text).next("platform kind");
}

}  // namespace mst
