#pragma once

#include <string>

#include "mst/api/registry.hpp"
#include "mst/common/lexer.hpp"

/// \file platform_io.hpp
/// Typed platform text I/O for the registry layer.
///
/// A kind-erasing `mst::parse_platform` (returning every topology as a
/// `Spider`) predated the registry; it was deprecated in favour of these
/// functions and has been removed.  They parse into the registry's
/// `api::Platform` variant, so the header keyword of the file decides which
/// algorithm family a solve dispatches to.

namespace mst::api {

/// Parses any platform text (`chain` / `fork` / `spider` / `tree` headers,
/// format of mst/platform/io.hpp) into the typed variant.  Throws
/// `std::invalid_argument` on malformed input or unknown keywords.
Platform parse_any_platform(const std::string& text);

/// Reads one platform of any kind from a lexer at its header keyword and
/// leaves the lexer after it, so a format that embeds a platform (a sweep
/// spec's `platform ... end` block) reads it in place and its errors name
/// their line in the embedding file.
Platform read_any_platform(Lexer& lex);

}  // namespace mst::api
