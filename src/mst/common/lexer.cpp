#include "mst/common/lexer.hpp"

#include <sstream>
#include <utility>

#include "mst/common/assert.hpp"

namespace mst {

namespace {

std::string at_line(std::size_t line) { return "line " + std::to_string(line) + ": "; }

}  // namespace

Lexer::Lexer(const std::string& text, std::string document) : document_(std::move(document)) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tok;
    while (ls >> tok) tokens_.push_back({tok, lineno});
  }
}

const Lexer::Token& Lexer::peek(const char* what) const {
  MST_REQUIRE(!done(), "unexpected end of " + document_ + ", expected " + what);
  return tokens_[pos_];
}

std::string Lexer::next(const char* what) {
  const std::string& tok = peek(what).text;
  ++pos_;
  return tok;
}

Time Lexer::next_time(const char* what) {
  const Token& tok = peek(what);
  ++pos_;
  std::size_t used = 0;
  Time v = 0;
  try {
    v = std::stoll(tok.text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  MST_REQUIRE(used == tok.text.size(),
              at_line(tok.line) + "expected " + what + ", got '" + tok.text + "'");
  return v;
}

std::size_t Lexer::next_count(const char* what) {
  const std::size_t line = peek(what).line;
  const Time v = next_time(what);
  MST_REQUIRE(v >= 1, at_line(line) + what + " must be >= 1");
  return static_cast<std::size_t>(v);
}

std::size_t Lexer::next_index(const char* what) {
  const std::size_t line = peek(what).line;
  const Time v = next_time(what);
  MST_REQUIRE(v >= 0, at_line(line) + what + " must be non-negative");
  return static_cast<std::size_t>(v);
}

void Lexer::expect(const std::string& keyword) {
  const Token& tok = peek(keyword.c_str());
  ++pos_;
  MST_REQUIRE(tok.text == keyword,
              at_line(tok.line) + "expected '" + keyword + "', got '" + tok.text + "'");
}

void Lexer::expect_end() const {
  MST_REQUIRE(done(), at_line(tokens_[pos_].line) + "trailing input '" + tokens_[pos_].text + "'");
}

}  // namespace mst
