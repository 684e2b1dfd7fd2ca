#include "blog/term/reader.hpp"

#include <cctype>
#include <limits>

#include "blog/term/ops.hpp"

namespace blog::term {
namespace {

bool is_solo(char c) { return c == ',' || c == ';' || c == '!' || c == '|'; }

// Largest magnitude of an integer token: |INT64_MIN|, legal only right
// after a prefix `-`.
constexpr std::uint64_t kMaxIntMagnitude =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + 1;

}  // namespace

Reader::Reader(std::string_view text, Store& store) : text_(text), store_(store) {
  advance();
}

void Reader::fail(std::string_view msg) const {
  throw ParseError(std::string(msg), tok_.line, tok_.col);
}

void Reader::fail_unexpected() const {
  fail("unexpected '" + tok_.text + "'");
}

void Reader::fail_too_deep() const {
  fail("term nested deeper than " + std::to_string(kMaxReadDepth) + " levels");
}

void Reader::advance() {
  // Skip whitespace and comments.
  for (;;) {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      if (text_[pos_] == '\n') {
        ++line_;
        col_ = 1;
      } else {
        ++col_;
      }
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '%') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      continue;
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '*') {
      pos_ += 2;
      while (pos_ + 1 < text_.size() &&
             !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
        if (text_[pos_] == '\n') {
          ++line_;
          col_ = 1;
        }
        ++pos_;
      }
      pos_ = std::min(pos_ + 2, text_.size());
      continue;
    }
    break;
  }

  tok_ = Token{};
  tok_.line = line_;
  tok_.col = col_;
  if (pos_ >= text_.size()) {
    tok_.kind = Token::Kind::Eof;
    return;
  }

  const char c = text_[pos_];
  auto starts_term = [&](std::size_t i) {
    // A '.' ends a clause when followed by layout or EOF.
    return i + 1 >= text_.size() ||
           std::isspace(static_cast<unsigned char>(text_[i + 1])) ||
           text_[i + 1] == '%';
  };

  if (c == '.' && starts_term(pos_)) {
    tok_.kind = Token::Kind::End;
    tok_.text = ".";
    ++pos_;
    ++col_;
    return;
  }

  if (std::isdigit(static_cast<unsigned char>(c))) {
    std::size_t end = pos_;
    std::uint64_t v = 0;
    while (end < text_.size() && std::isdigit(static_cast<unsigned char>(text_[end]))) {
      const auto digit = static_cast<std::uint64_t>(text_[end] - '0');
      if (v > (kMaxIntMagnitude - digit) / 10) fail("integer literal out of range");
      v = v * 10 + digit;
      ++end;
    }
    tok_.kind = Token::Kind::Int;
    tok_.value = v;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (std::islower(static_cast<unsigned char>(c))) {
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_'))
      ++end;
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (std::isupper(static_cast<unsigned char>(c)) || c == '_') {
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[end])) || text_[end] == '_'))
      ++end;
    tok_.kind = Token::Kind::Var;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  if (c == '\'') {
    std::string out;
    std::size_t i = pos_ + 1;
    for (; i < text_.size(); ++i) {
      if (text_[i] == '\'') {
        if (i + 1 < text_.size() && text_[i + 1] == '\'') {
          out.push_back('\'');
          ++i;
          continue;
        }
        break;
      }
      out.push_back(text_[i]);
    }
    if (i >= text_.size()) fail("unterminated quoted atom");
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::move(out);
    col_ += static_cast<int>(i + 1 - pos_);
    pos_ = i + 1;
    return;
  }

  if (is_solo(c) || c == '(' || c == ')' || c == '[' || c == ']' || c == '{' ||
      c == '}') {
    tok_.kind = (c == ',' || c == ';' || c == '|' || c == '!')
                    ? Token::Kind::Atom
                    : Token::Kind::Punct;
    if (c == '(' || c == ')' || c == '[' || c == ']' || c == '{' || c == '}' ||
        c == '|') {
      tok_.kind = Token::Kind::Punct;
    }
    tok_.text = std::string(1, c);
    ++pos_;
    ++col_;
    return;
  }

  if (is_symbol_char(c)) {
    std::size_t end = pos_;
    while (end < text_.size() && is_symbol_char(text_[end])) ++end;
    tok_.kind = Token::Kind::Atom;
    tok_.text = std::string(text_.substr(pos_, end - pos_));
    col_ += static_cast<int>(end - pos_);
    pos_ = end;
    return;
  }

  fail(std::string("unexpected character '") + c + "'");
}

bool Reader::at_punct(char c) const {
  return tok_.kind == Token::Kind::Punct && tok_.text[0] == c;
}

bool Reader::at_comma() const {
  return tok_.kind == Token::Kind::Atom && tok_.text == ",";
}

void Reader::expect(char close, std::string_view msg) {
  if (!at_punct(close)) fail(msg);
  advance();
}

// The descent keeps its frames small so kMaxReadDepth levels fit in a
// thread's stack: no token copies, no per-compound vectors (arguments
// collect on `args_`), no addressable locals, and error text built only in
// cold helpers.

TermRef Reader::var_for(const std::string& name) {
  if (name == "_") return store_.make_var(intern("_"));
  if (auto it = var_names_.find(name); it != var_names_.end()) return it->second;
  const Symbol sym = intern(name);
  const TermRef v = store_.make_var(sym);
  var_names_.emplace(name, v);
  var_order_.emplace_back(sym, v);
  return v;
}

Reader::AtomToken Reader::take_atom() {
  const AtomToken a{intern(tok_.text), find_operator(tok_.text, /*prefix=*/true),
                    tok_.text == "-"};
  advance();
  return a;
}

void Reader::push_arg(TermRef t) { args_.push_back(t); }

TermRef Reader::build(Symbol name, std::size_t base) {
  const TermRef t = store_.make_struct(name, std::span(args_).subspan(base));
  args_.resize(base);
  return t;
}

TermRef Reader::parse_list() {
  // '[' already consumed.
  if (at_punct(']')) {
    advance();
    return store_.make_atom(nil_symbol());
  }
  const std::size_t base = args_.size();
  push_arg(parse(999));
  while (at_comma()) {
    advance();
    push_arg(parse(999));
  }
  TermRef tail = kNullTerm;
  if (at_punct('|')) {
    advance();
    tail = parse(999);
  }
  expect(']', "expected ']' in list");
  const TermRef list = store_.make_list(std::span(args_).subspan(base), tail);
  args_.resize(base);
  return list;
}

TermRef Reader::parse_args(Symbol name) {
  // '(' already consumed (no layout between the name and '(' is tracked).
  const std::size_t base = args_.size();
  push_arg(parse(999));
  while (at_comma()) {
    advance();
    push_arg(parse(999));
  }
  expect(')', "expected ')' after arguments");
  return build(name, base);
}

TermRef Reader::parse_primary(int max_prec) {
  switch (tok_.kind) {
    case Token::Kind::Int: {
      const std::uint64_t v = tok_.value;
      if (v > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
        fail("integer literal out of range");
      advance();
      return store_.make_int(static_cast<std::int64_t>(v));
    }
    case Token::Kind::Var: {
      const TermRef v = var_for(tok_.text);
      advance();
      return v;
    }
    case Token::Kind::Punct:
      if (at_punct('(')) {
        advance();
        const TermRef inner = parse(1200);
        expect(')', "expected ')'");
        return inner;
      }
      if (at_punct('[')) {
        advance();
        return parse_list();
      }
      fail_unexpected();
    case Token::Kind::Atom: {
      const AtomToken a = take_atom();
      // A prefix operator applies only when a term follows it; before `(`
      // the name is a functor in functional notation (`-(1)`, `-(a,b)`).
      const bool operand_follows =
          tok_.kind == Token::Kind::Int || tok_.kind == Token::Kind::Var ||
          (tok_.kind == Token::Kind::Atom && !at_comma()) || at_punct('[');
      if (a.prefix_op != nullptr && operand_follows && a.prefix_op->priority <= max_prec) {
        // `-` directly before a number is a negative literal (`- 3`, and
        // `-9223372036854775808`, the one literal with no positive twin).
        if (a.minus && tok_.kind == Token::Kind::Int) {
          const std::uint64_t v = tok_.value;
          advance();
          return store_.make_int(static_cast<std::int64_t>(0 - v));
        }
        const std::size_t base = args_.size();
        push_arg(parse(a.prefix_op->right_max()));
        return build(a.name, base);
      }
      if (at_punct('(')) {
        advance();
        return parse_args(a.name);
      }
      return store_.make_atom(a.name);
    }
    case Token::Kind::End:
    case Token::Kind::Eof:
      fail("unexpected end of clause");
  }
  fail("unreachable");
}

const OpDef* Reader::infix_at(int max_prec, int left_prec) const {
  if (tok_.kind != Token::Kind::Atom) return nullptr;
  const OpDef* op = find_operator(tok_.text, /*prefix=*/false);
  if (op == nullptr || op->priority > max_prec || left_prec > op->left_max()) return nullptr;
  return op;
}

TermRef Reader::parse_infix(const OpDef& op, TermRef left) {
  const Symbol name = intern(tok_.text);
  advance();
  const std::size_t base = args_.size();
  push_arg(left);
  push_arg(parse(op.right_max()));
  return build(name, base);
}

TermRef Reader::parse(int max_prec) {
  if (++depth_ > kMaxReadDepth) fail_too_deep();
  TermRef left = parse_primary(max_prec);
  int left_prec = 0;
  while (const OpDef* op = infix_at(max_prec, left_prec)) {
    left = parse_infix(*op, left);
    left_prec = op->priority;
  }
  --depth_;
  return left;
}

std::optional<ReadTerm> Reader::next() {
  depth_ = 0;
  args_.clear();
  var_names_.clear();
  var_order_.clear();
  if (tok_.kind == Token::Kind::Eof) return std::nullopt;
  ReadTerm out;
  out.term = parse(1200);
  if (tok_.kind != Token::Kind::End) fail("expected '.' at end of clause");
  advance();
  out.variables = var_order_;
  return out;
}

std::vector<ReadTerm> Reader::all() {
  std::vector<ReadTerm> out;
  while (auto t = next()) out.push_back(std::move(*t));
  return out;
}

ReadTerm parse_term(std::string_view text, Store& store) {
  std::string buf{text};
  // Ensure a clause terminator so `next()` accepts it.
  buf += " .";
  Reader r(buf, store);
  auto t = r.next();
  if (!t) throw ParseError("empty term", 1, 1);
  return *t;
}

}  // namespace blog::term
