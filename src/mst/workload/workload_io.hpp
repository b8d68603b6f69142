#pragma once

#include <string>

#include "mst/workload/workload.hpp"

/// \file workload_io.hpp
/// Plain-text workload descriptions — the workload sibling of the platform
/// format (mst/platform/io.hpp).
///
/// Format (the lexical rules of `common/lexer.hpp`: `#` comments,
/// whitespace-separated tokens):
///
///     workload <n>
///     sizes <s_1> ... <s_n>      # optional; task sizes, each >= 1
///     release <r_1> ... <r_n>    # optional; release dates, each >= 0
///
/// Both optional lines may appear at most once, in either order.  The
/// parser throws `std::invalid_argument` on malformed input; values are
/// canonicalized by the `Workload` constructor, so
/// `parse_workload(write_workload(w)) == w` for every workload.

namespace mst {

std::string write_workload(const Workload& workload);
Workload parse_workload(const std::string& text);

}  // namespace mst
