#include "mst/api/platform_io.hpp"

#include <stdexcept>

#include "mst/platform/io.hpp"

namespace mst::api {

Platform parse_any_platform(const std::string& text) {
  const std::string kind = peek_platform_kind(text);
  if (kind == "chain") return parse_chain(text);
  if (kind == "fork") return parse_fork(text);
  if (kind == "spider") return parse_spider(text);
  if (kind == "tree") return parse_tree(text);
  throw std::invalid_argument("unknown platform kind '" + kind +
                              "' (expected chain|fork|spider|tree)");
}

}  // namespace mst::api
