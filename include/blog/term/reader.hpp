// Prolog-syntax reader: tokenizer plus operator-precedence parser covering
// the subset of Edinburgh syntax used by the paper's examples and our
// workloads: facts, rules (`:-`), conjunction (`,`), lists, integers,
// the operators of the `BLOG_OPERATORS` table (ops.hpp) and quoted atoms.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blog/term/ops.hpp"
#include "blog/term/store.hpp"

namespace blog::term {

/// Error with 1-based line/column of the offending token.
class ParseError : public std::runtime_error {
public:
  ParseError(std::string msg, int line, int col)
      : std::runtime_error(std::move(msg)), line(line), col(col) {}
  int line, col;
};

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BLOG_SANITIZED_STACK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BLOG_SANITIZED_STACK 1
#endif
#endif

/// Deepest nesting the reader accepts: each compound argument, operator
/// operand, bracketed term and list element opens one level. Deeper text
/// raises ParseError instead of exhausting the stack, in the recursive
/// descent or in the recursive term routines (unify, copy, write) that
/// would process the term. A query this deep is read, keyed, solved and
/// rendered within an 8 MiB thread stack. AddressSanitizer and
/// ThreadSanitizer frames take two to four times the stack, so those
/// builds stop at half the depth.
#ifdef BLOG_SANITIZED_STACK
inline constexpr int kMaxReadDepth = 8000;
#undef BLOG_SANITIZED_STACK
#else
inline constexpr int kMaxReadDepth = 16000;
#endif

/// One parsed clause-level term (`head :- body`, a fact, or a query body),
/// plus the named variables it mentions (for answer printing).
struct ReadTerm {
  TermRef term = kNullTerm;
  std::vector<std::pair<Symbol, TermRef>> variables;  // name -> var cell
};

/// Reads consecutive terms terminated by `.` from a program text. All terms
/// are built into the caller-supplied store.
class Reader {
public:
  Reader(std::string_view text, Store& store);

  /// Parse the next clause-level term; std::nullopt at end of input.
  /// Throws ParseError on malformed input.
  std::optional<ReadTerm> next();

  /// Parse all remaining terms.
  std::vector<ReadTerm> all();

private:
  struct Token {
    enum class Kind {
      Atom, Var, Int, Punct, End,  // End = clause-terminating '.'
      Eof,
    };
    Kind kind = Kind::Eof;
    std::string text;
    std::uint64_t value = 0;  // Int: the magnitude, at most 2^63
    int line = 1, col = 1;
  };

  // tokenizer
  void advance();
  [[noreturn]] void fail(std::string_view msg) const;  // at the current token
  [[noreturn, gnu::cold, gnu::noinline]] void fail_unexpected() const;
  [[noreturn, gnu::cold, gnu::noinline]] void fail_too_deep() const;
  [[nodiscard]] bool at_punct(char c) const;
  [[nodiscard]] bool at_comma() const;
  void expect(char close, std::string_view msg);

  // parser
  struct AtomToken {
    Symbol name;
    const OpDef* prefix_op;  // the name's prefix row, or nullptr
    bool minus;
  };
  [[gnu::noinline]] AtomToken take_atom();
  [[gnu::noinline]] void push_arg(TermRef t);
  TermRef build(Symbol name, std::size_t base);  // name(args_[base..])
  /// The infix row of the current token if it may extend `left_prec` here.
  [[gnu::noinline]] const OpDef* infix_at(int max_prec, int left_prec) const;
  TermRef parse_infix(const OpDef& op, TermRef left);
  TermRef parse(int max_prec);
  TermRef parse_primary(int max_prec);
  TermRef parse_args(Symbol name);
  TermRef parse_list();
  TermRef var_for(const std::string& name);

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token tok_;
  int depth_ = 0;  // parse() calls open on the current clause
  std::vector<TermRef> args_;  // arguments and list items being collected
  Store& store_;
  std::unordered_map<std::string, TermRef> var_names_;  // per-clause scope
  std::vector<std::pair<Symbol, TermRef>> var_order_;
};

/// Parse a single term from `text` (no trailing `.` required).
ReadTerm parse_term(std::string_view text, Store& store);

}  // namespace blog::term
