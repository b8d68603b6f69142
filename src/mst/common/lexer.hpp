#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "mst/common/time.hpp"

/// \file lexer.hpp
/// The one tokenizer of every text the library reads: platforms
/// (`platform/io.hpp`), workloads (`workload/workload_io.hpp`), schedules
/// (`schedule/schedule_io.hpp`), sweep specs (`scenario/spec.hpp`) and
/// journal files (`scenario/journal.hpp`: header, frame lines and record
/// payloads).  A schedule and a spec read their embedded platforms through
/// the same lexer, so errors there name the line in the embedding file.
/// The command line's numbers (`common/cli.hpp`) go through `to_time` and
/// `to_double`, the number rules below.
///
/// A `Lexer` is a cursor over the caller's text: it copies nothing and
/// allocates nothing until it reports an error, and its tokens are views
/// into that text.  So the text must outlive the lexer and every token read
/// from it.
///
/// The lexical rules are the same for every format: `#` starts a comment
/// that runs to the end of its line, tokens are separated by any
/// whitespace (line breaks included), and an error about a token names its
/// line in the file as `line N:`.  Line-oriented formats ask whether the
/// line of the last token has ended (`line_ended`) or take its raw rest
/// (`rest_of_line`).  Numbers are read whole with `std::from_chars`:
/// decimal, an optional leading `-`, no `+`, and for doubles every string
/// `%.17g` prints (`inf` and `nan` included), read back to the same bits.
/// Every error is a `std::invalid_argument`.  A reader never reserves more
/// items than `remaining()` tokens can hold, so a header count the file
/// cannot back ends at the file's end instead of in an allocation of that
/// size.

namespace mst {

/// The `line N: ` that starts an error about a token on line `line`.
std::string at_line(std::size_t line);

/// `token` as a whole 64-bit number; empty unless all of it is one.
std::optional<Time> to_time(std::string_view token);

/// `token` as a whole double; empty unless all of it is one.
std::optional<double> to_double(std::string_view token);

class Lexer {
 public:
  /// A cursor at the first token of `text`.  `document` names the input in
  /// the error for a missing token: "unexpected end of <document>, expected
  /// ..."; it must outlive the lexer too.
  explicit Lexer(std::string_view text, const char* document = "input");

  [[nodiscard]] bool done() const { return pos_ == text_.size(); }

  /// An upper bound on the tokens not yet read: a token and the blank after
  /// it take two bytes.
  [[nodiscard]] std::size_t remaining() const { return (text_.size() - pos_ + 1) / 2; }

  /// The next token; `what` names it if the input has ended.
  std::string_view next(const char* what);

  /// The next token, not consumed; throws like `next` at the end.
  [[nodiscard]] std::string_view peek(const char* what) const;

  /// The next token as a whole 64-bit number.
  Time next_time(const char* what);

  /// The next token as a count of at least 1.
  std::size_t next_count(const char* what);

  /// The next token as an index (or a count that may be 0), up to the
  /// largest `std::size_t`.
  std::size_t next_index(const char* what);

  /// The next token as a double.
  double next_double(const char* what);

  /// Reads the token `keyword`.
  void expect(const char* keyword);

  /// Throws unless every token has been read.
  void expect_end() const;

  /// The line of the last token read, for errors about its value.
  [[nodiscard]] std::size_t line() const { return line_; }

  /// Whether the line of the last token read holds no further token: only
  /// blanks or a comment follow it.  True at the end of the text.
  [[nodiscard]] bool line_ended() const { return done() || next_line_ != line_; }

  /// The raw rest of the last token's line: what follows the one blank
  /// after the token, `#` and blanks included, without the line break; ""
  /// when the line ends at the token.  The cursor moves to the next line.
  std::string_view rest_of_line();

 private:
  /// Moves the cursor over blanks, line breaks and comments to the next
  /// token, counting lines.
  void skip();

  /// The length of the token at the cursor.
  [[nodiscard]] std::size_t token_size() const;

  /// The next token as a whole `Number`; throws "line N: expected <what>,
  /// got '<token>'" unless it is one.
  template <class Number>
  Number next_number(const char* what);

  std::string_view text_;
  std::size_t pos_ = 0;        ///< start of the next token, or the end
  std::size_t end_ = 0;        ///< just past the last token read
  std::size_t line_ = 0;       ///< line of the last token read
  std::size_t next_line_ = 1;  ///< line of the next token
  const char* document_;
};

}  // namespace mst
