#include "mst/common/lexer.hpp"

#include <charconv>
#include <cstdint>
#include <type_traits>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "next_index reads 64-bit seeds and fingerprints as std::size_t");

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'; }

template <class Number>
std::optional<Number> whole(std::string_view token) {
  Number value{};
  const char* const end = token.data() + token.size();
  const auto [ptr, error] = std::from_chars(token.data(), end, value);
  if (error != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::string at_line(std::size_t line) { return "line " + std::to_string(line) + ": "; }

std::optional<Time> to_time(std::string_view token) { return whole<Time>(token); }

std::optional<double> to_double(std::string_view token) { return whole<double>(token); }

Lexer::Lexer(std::string_view text, const char* document) : text_(text), document_(document) {
  skip();
}

void Lexer::skip() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '\n') {
      ++next_line_;
      ++pos_;
    } else if (c == '#') {
      const std::size_t eol = text_.find('\n', pos_);
      pos_ = eol == std::string_view::npos ? text_.size() : eol;
    } else if (is_blank(c)) {
      ++pos_;
    } else {
      return;
    }
  }
}

std::size_t Lexer::token_size() const {
  std::size_t end = pos_;
  while (end < text_.size() && text_[end] != '\n' && text_[end] != '#' && !is_blank(text_[end])) {
    ++end;
  }
  return end - pos_;
}

std::string_view Lexer::peek(const char* what) const {
  MST_REQUIRE(!done(), "unexpected end of " + std::string(document_) + ", expected " + what);
  return text_.substr(pos_, token_size());
}

std::string_view Lexer::next(const char* what) {
  const std::string_view token = peek(what);
  line_ = next_line_;
  pos_ += token.size();
  end_ = pos_;
  skip();
  return token;
}

template <class Number>
Number Lexer::next_number(const char* what) {
  const std::string_view token = next(what);
  const std::optional<Number> value = whole<Number>(token);
  if (value) return *value;
  MST_REQUIRE(std::is_signed_v<Number> || token.front() != '-' || !to_time(token),
              at_line(line_) + what + " must be non-negative");
  detail::throw_requirement(
      "whole token", at_line(line_) + "expected " + what + ", got '" + std::string(token) + "'");
}

Time Lexer::next_time(const char* what) { return next_number<Time>(what); }

std::size_t Lexer::next_index(const char* what) { return next_number<std::size_t>(what); }

std::size_t Lexer::next_count(const char* what) {
  const std::size_t value = next_index(what);
  MST_REQUIRE(value >= 1, at_line(line_) + what + " must be >= 1");
  return value;
}

double Lexer::next_double(const char* what) { return next_number<double>(what); }

void Lexer::expect(const char* keyword) {
  const std::string_view token = next(keyword);
  MST_REQUIRE(token == keyword, at_line(line_) + "expected '" + keyword + "', got '" +
                                    std::string(token) + "'");
}

void Lexer::expect_end() const {
  MST_REQUIRE(done(), at_line(next_line_) + "trailing input '" +
                          std::string(text_.substr(pos_, token_size())) + "'");
}

std::string_view Lexer::rest_of_line() {
  std::size_t from = end_;
  if (from < text_.size() && is_blank(text_[from])) ++from;
  std::size_t eol = text_.find('\n', from);
  if (eol == std::string_view::npos) eol = text_.size();
  pos_ = eol;
  next_line_ = line_;
  skip();
  return text_.substr(from, eol - from);
}

}  // namespace mst
