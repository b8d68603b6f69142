#pragma once

#include <cstdint>
#include <map>
#include <string>

/// \file cli.hpp
/// Minimal `--key=value` / `--flag` argument parsing for the examples and
/// experiment binaries.  Not a general-purpose CLI library — just enough to
/// parameterize instance sizes and seeds reproducibly from the shell.

namespace mst {

/// Parsed command line: `--name=value` pairs plus bare `--flag` switches.
class Args {
 public:
  /// Parse argv; throws `std::invalid_argument` on malformed options
  /// (anything not starting with `--`).
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Value lookups with defaults.  Numbers follow the rules of
  /// `common/lexer.hpp`; a value that is not one, or out of range, throws
  /// `std::invalid_argument` naming the option.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mst
