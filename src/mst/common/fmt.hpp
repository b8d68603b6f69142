#pragma once

#include <string>

namespace mst {

/// Round-trip-exact rendering for doubles: `%.17g` (max_digits10) survives
/// a `to_double` (`common/lexer.hpp`) round trip bit-for-bit, so every
/// writer that emits this string produces comparable, re-parseable output.
/// Infinities render as the `inf`/`-inf` sentinels the report layer
/// documents (the degenerate-platform value of `SolveResult::throughput`).
///
/// This is the only sanctioned way to print a double outside the
/// fixed-precision human-facing renderers (`Table`, SVG) — enforced by
/// mstlint's `lossy-float-format` / `raw-double-stream` rules.
std::string format_double(double value);

}  // namespace mst
