#include "crowd/query_language.hpp"

#include <cctype>

namespace gptc::crowd {

namespace {

using json::Json;

enum class TokenKind {
  Identifier,  // field path or keyword
  Number,
  String,
  Operator,  // = == != <> < <= > >=
  LParen,
  RParen,
  Comma,
  End,
};

struct Token {
  TokenKind kind = TokenKind::End;
  std::string text;
  std::size_t position = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw QueryParseError("query parse error at position " +
                          std::to_string(current_.position) + ": " + message);
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    current_ = Token{};
    current_.position = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = TokenKind::End;
      return;
    }
    const char c = text_[pos_];
    if (c == '(') {
      current_ = {TokenKind::LParen, "(", pos_++};
      return;
    }
    if (c == ')') {
      current_ = {TokenKind::RParen, ")", pos_++};
      return;
    }
    if (c == ',') {
      current_ = {TokenKind::Comma, ",", pos_++};
      return;
    }
    if (c == '\'' || c == '"') {
      const char quote = c;
      std::string out;
      ++pos_;
      while (true) {
        if (pos_ >= text_.size())
          throw QueryParseError("query parse error: unterminated string at " +
                                std::to_string(current_.position));
        if (text_[pos_] == quote) {
          // Doubled quote escapes itself, SQL style ('it''s').
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == quote) {
            out += quote;
            pos_ += 2;
            continue;
          }
          ++pos_;  // closing quote
          break;
        }
        out += text_[pos_++];
      }
      current_ = {TokenKind::String, std::move(out), current_.position};
      return;
    }
    if (c == '=' || c == '!' || c == '<' || c == '>') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '=' || (c == '<' && text_[pos_] == '>'))) {
        op += text_[pos_++];
      }
      if (op == "!")
        throw QueryParseError("query parse error: '!' must be '!=' at " +
                              std::to_string(current_.position));
      current_ = {TokenKind::Operator, std::move(op), current_.position};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      std::string num;
      num += text_[pos_++];
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              ((text_[pos_] == '-' || text_[pos_] == '+') &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))))
        num += text_[pos_++];
      current_ = {TokenKind::Number, std::move(num), current_.position};
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string ident;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '.'))
        ident += text_[pos_++];
      current_ = {TokenKind::Identifier, std::move(ident), current_.position};
      return;
    }
    throw QueryParseError("query parse error: unexpected character '" +
                          std::string(1, c) + "' at " + std::to_string(pos_));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

std::string upper(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

bool is_keyword(const Token& t, const char* kw) {
  return t.kind == TokenKind::Identifier && upper(t.text) == kw;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : lexer_(text) {}

  Json parse() {
    if (lexer_.peek().kind == TokenKind::End) return Json::object();
    Json q = parse_or();
    if (lexer_.peek().kind != TokenKind::End)
      lexer_.fail("trailing input after condition");
    return q;
  }

 private:
  Json parse_or() {
    Json first = parse_and();
    if (!is_keyword(lexer_.peek(), "OR")) return first;
    Json list = Json::array();
    list.push_back(std::move(first));
    while (is_keyword(lexer_.peek(), "OR")) {
      lexer_.take();
      list.push_back(parse_and());
    }
    Json q = Json::object();
    q["$or"] = std::move(list);
    return q;
  }

  Json parse_and() {
    Json first = parse_unary();
    if (!is_keyword(lexer_.peek(), "AND")) return first;
    Json list = Json::array();
    list.push_back(std::move(first));
    while (is_keyword(lexer_.peek(), "AND")) {
      lexer_.take();
      list.push_back(parse_unary());
    }
    Json q = Json::object();
    q["$and"] = std::move(list);
    return q;
  }

  Json parse_unary() {
    if (is_keyword(lexer_.peek(), "NOT")) {
      lexer_.take();
      descend();
      Json q = Json::object();
      q["$not"] = parse_unary();
      --depth_;
      return q;
    }
    if (lexer_.peek().kind == TokenKind::LParen) {
      lexer_.take();
      descend();
      Json inner = parse_or();
      --depth_;
      if (lexer_.peek().kind != TokenKind::RParen)
        lexer_.fail("expected ')'");
      lexer_.take();
      return inner;
    }
    return parse_comparison();
  }

  /// Enters one NOT or parenthesized level; past the same nesting limit as
  /// the JSON parser the clause is rejected instead of exhausting the stack.
  void descend() {
    if (depth_ == json::Json::kMaxDepth)
      lexer_.fail("nesting deeper than " +
                  std::to_string(json::Json::kMaxDepth) + " levels");
    ++depth_;
  }

  Json parse_value_token() {
    const Token t = lexer_.take();
    switch (t.kind) {
      case TokenKind::Number:
        return Json::parse(t.text);  // reuse the JSON number grammar
      case TokenKind::String:
        return Json(t.text);
      case TokenKind::Identifier: {
        const std::string kw = upper(t.text);
        if (kw == "TRUE") return Json(true);
        if (kw == "FALSE") return Json(false);
        if (kw == "NULL") return Json(nullptr);
        lexer_.fail("expected a value, got identifier '" + t.text + "'");
      }
      default: lexer_.fail("expected a value");
    }
  }

  Json parse_comparison() {
    const Token field = lexer_.take();
    if (field.kind != TokenKind::Identifier)
      lexer_.fail("expected a field name");

    // field EXISTS / field NOT EXISTS
    if (is_keyword(lexer_.peek(), "EXISTS")) {
      lexer_.take();
      Json cond = Json::object();
      cond["$exists"] = true;
      Json q = Json::object();
      q[field.text] = std::move(cond);
      return q;
    }
    if (is_keyword(lexer_.peek(), "NOT")) {
      lexer_.take();
      if (!is_keyword(lexer_.peek(), "EXISTS"))
        lexer_.fail("expected EXISTS after NOT");
      lexer_.take();
      Json cond = Json::object();
      cond["$exists"] = false;
      Json q = Json::object();
      q[field.text] = std::move(cond);
      return q;
    }

    // field IN ( v1, v2, ... )
    if (is_keyword(lexer_.peek(), "IN")) {
      lexer_.take();
      if (lexer_.peek().kind != TokenKind::LParen)
        lexer_.fail("expected '(' after IN");
      lexer_.take();
      Json values = Json::array();
      values.push_back(parse_value_token());
      while (lexer_.peek().kind == TokenKind::Comma) {
        lexer_.take();
        values.push_back(parse_value_token());
      }
      if (lexer_.peek().kind != TokenKind::RParen)
        lexer_.fail("expected ')' to close IN list");
      lexer_.take();
      Json cond = Json::object();
      cond["$in"] = std::move(values);
      Json q = Json::object();
      q[field.text] = std::move(cond);
      return q;
    }

    const Token op = lexer_.take();
    if (op.kind != TokenKind::Operator)
      lexer_.fail("expected a comparison operator after '" + field.text + "'");
    Json value = parse_value_token();

    Json q = Json::object();
    const std::string& o = op.text;
    if (o == "=" || o == "==") {
      q[field.text] = std::move(value);
    } else {
      const char* mongo = nullptr;
      if (o == "!=" || o == "<>") mongo = "$ne";
      else if (o == "<") mongo = "$lt";
      else if (o == "<=") mongo = "$lte";
      else if (o == ">") mongo = "$gt";
      else if (o == ">=") mongo = "$gte";
      else lexer_.fail("unknown operator '" + o + "'");
      Json cond = Json::object();
      cond[mongo] = std::move(value);
      q[field.text] = std::move(cond);
    }
    return q;
  }

  Lexer lexer_;
  std::size_t depth_ = 0;  // open NOTs and parentheses around the cursor
};

}  // namespace

json::Json parse_where_clause(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace gptc::crowd
