#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// \file table.hpp
/// ASCII table rendering for the experiment harness.  Every `exp_*` binary
/// prints the rows the paper (or our added evaluation) reports through this
/// one formatter so the output stays uniform and diffable between runs.

namespace mst {

/// Column-aligned plain-text table.
class Table {
 public:
  /// Create a table with the given column headers.
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent `cell` calls fill it left to right.
  Table& row();

  Table& cell(const std::string& v);
  Table& cell(const char* v);
  Table& cell(std::int64_t v);
  Table& cell(std::uint64_t v);
  Table& cell(int v) { return cell(static_cast<std::int64_t>(v)); }
  /// Fixed-precision floating point cell.
  Table& cell(double v, int precision = 3);

  /// Render with a header rule and column padding.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mst
