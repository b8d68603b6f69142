#include "mst/api/platform_io.hpp"

#include <stdexcept>

#include "mst/platform/io.hpp"

namespace mst::api {

Platform read_any_platform(Lexer& lex) {
  const std::string_view kind = lex.peek("platform kind");
  if (kind == "chain") return read_chain(lex);
  if (kind == "fork") return read_fork(lex);
  if (kind == "spider") return read_spider(lex);
  if (kind == "tree") return read_tree(lex);
  lex.next("platform kind");
  throw std::invalid_argument(at_line(lex.line()) + "unknown platform kind '" +
                              std::string(kind) + "' (expected chain|fork|spider|tree)");
}

Platform parse_any_platform(const std::string& text) {
  Lexer lex(text);
  Platform platform = read_any_platform(lex);
  lex.expect_end();
  return platform;
}

}  // namespace mst::api
