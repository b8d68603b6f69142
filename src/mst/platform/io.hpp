#pragma once

#include <string>

#include "mst/common/lexer.hpp"
#include "mst/platform/chain.hpp"
#include "mst/platform/fork.hpp"
#include "mst/platform/spider.hpp"
#include "mst/platform/tree.hpp"

/// \file io.hpp
/// Plain-text platform descriptions.
///
/// Format (the lexical rules of `common/lexer.hpp`: `#` comments,
/// whitespace-separated tokens):
///
///     chain <p>
///     <c_1> <w_1>
///     ...
///     <c_p> <w_p>
///
///     fork <p>
///     <c_1> <w_1> ...
///
///     spider <legs>
///     leg <p>
///     <c_1> <w_1> ...
///     leg <p>
///     ...
///
///     tree <slaves>
///     <parent_1> <c_1> <w_1>   # slaves in id order 1..slaves; parent is 0
///     ...                      # (the master) or an earlier slave id
///
/// `parse_*` throws `std::invalid_argument` with a line number on malformed
/// input.  `write_*`/`parse_*` round-trip exactly.  `read_*` reads one
/// description from a lexer at its header keyword and leaves the lexer
/// after it: formats that embed a platform (schedule files) read it in
/// place, so its errors name their line in the embedding file.

namespace mst {

std::string write_chain(const Chain& chain);
std::string write_fork(const Fork& fork);
std::string write_spider(const Spider& spider);
std::string write_tree(const Tree& tree);

Chain parse_chain(const std::string& text);
Fork parse_fork(const std::string& text);
Spider parse_spider(const std::string& text);
Tree parse_tree(const std::string& text);

Chain read_chain(Lexer& lex);
Spider read_spider(Lexer& lex);

/// The header keyword of a platform description ("chain", "fork", "spider",
/// "tree", ...), read with the same comment/whitespace rules as the parsers.
/// Throws on empty input; does not validate the keyword.
/// For kind-preserving parsing into the registry's typed variant, use
/// `api::parse_any_platform` (mst/api/platform_io.hpp).
std::string peek_platform_kind(const std::string& text);

}  // namespace mst
