#include "mst/common/cli.hpp"

#include <optional>
#include <stdexcept>

#include "mst/common/assert.hpp"
#include "mst/common/lexer.hpp"

namespace mst {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    MST_REQUIRE(arg.rfind("--", 0) == 0, "options must start with --, got: " + arg);
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "1";  // bare flag
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

bool Args::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::optional<Time> value = to_time(it->second);
  MST_REQUIRE(value, "not a 64-bit integer: --" + name + "=" + it->second);
  return *value;
}

double Args::get_double(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::optional<double> value = to_double(it->second);
  MST_REQUIRE(value, "not a number: --" + name + "=" + it->second);
  return *value;
}

}  // namespace mst
