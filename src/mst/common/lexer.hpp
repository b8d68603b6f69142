#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mst/common/time.hpp"

/// \file lexer.hpp
/// The one tokenizer of the plain-text formats: platforms
/// (`platform/io.hpp`), workloads (`workload/workload_io.hpp`) and
/// schedules (`schedule/schedule_io.hpp`), a schedule reading its embedded
/// platform through the same lexer.
///
/// The lexical rules are the same for every format: `#` starts a comment
/// that runs to the end of its line, tokens are separated by any
/// whitespace (line breaks included), and an error about a token names its
/// line in the file as `line N:`.  Every error is a `std::invalid_argument`.
/// A reader never reserves more items than `remaining()` tokens can hold,
/// so a header count the file cannot back ends at the file's end instead
/// of in an allocation of that size.

namespace mst {

class Lexer {
 public:
  /// Splits `text` into tokens.  `document` names the input in the error
  /// for a missing token: "unexpected end of <document>, expected ...".
  explicit Lexer(const std::string& text, std::string document = "input");

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }

  /// Number of tokens not yet read.
  [[nodiscard]] std::size_t remaining() const { return tokens_.size() - pos_; }

  /// The next token; `what` names it if the input has ended.
  std::string next(const char* what);

  /// The next token as a whole 64-bit number.
  Time next_time(const char* what);

  /// The next token as a count of at least 1.
  std::size_t next_count(const char* what);

  /// The next token as an index (or a count that may be 0).
  std::size_t next_index(const char* what);

  /// Reads the token `keyword`.
  void expect(const std::string& keyword);

  /// Throws unless every token has been read.
  void expect_end() const;

 private:
  struct Token {
    std::string text;
    std::size_t line;
  };

  /// The next token, not consumed; throws at the end of input.
  const Token& peek(const char* what) const;

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::string document_;
};

}  // namespace mst
