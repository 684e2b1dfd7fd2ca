#include "blog/term/writer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>

#include "blog/term/ops.hpp"

namespace blog::term {
namespace {

/// Interned names of the BLOG_OPERATORS rows, in table order.
const std::array<Symbol, kOperatorCount>& operator_symbols() {
  static const std::array<Symbol, kOperatorCount> syms = [] {
    std::array<Symbol, kOperatorCount> out{};
    for (std::size_t i = 0; i < kOperatorCount; ++i) out[i] = intern(kOperators[i].name);
    return out;
  }();
  return syms;
}

/// The row that renders functor `name`/`arity` in operator form: a prefix
/// row for arity 1, an infix row for arity 2; nullptr otherwise.
[[gnu::noinline]] const OpDef* operator_for(Symbol name, std::uint32_t arity) {
  if (arity != 1 && arity != 2) return nullptr;
  const auto& syms = operator_symbols();
  for (std::size_t i = 0; i < kOperatorCount; ++i)
    if (syms[i] == name && kOperators[i].prefix() == (arity == 1)) return &kOperators[i];
  return nullptr;
}

bool is_alnum(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// True when the reader would take `a` then `b` as one token.
bool glues(char a, char b) {
  return (is_symbol_char(a) && is_symbol_char(b)) || (is_alnum(a) && is_alnum(b));
}

bool atom_needs_quotes(std::string_view name) {
  if (name.empty()) return true;
  if (name == "[]" || name == "!" || name == ";" || name == ",") return false;
  if (std::islower(static_cast<unsigned char>(name[0])))
    return !std::all_of(name.begin(), name.end(), is_alnum);
  // A symbol-char run reads back as one atom, except a lone `.` (a clause
  // end before layout) and a leading `/*` (a comment).
  return name == "." || name.starts_with("/*") ||
         !std::all_of(name.begin(), name.end(), is_symbol_char);
}

/// What a rendering starts with, as far as a prefix operator in front of
/// it is concerned: the reader takes `op(` as functional notation, an
/// `op` before `,` as an atom, and `-` before a number as a negative
/// literal.
enum class Lead { Other, Open, Comma, Number };

struct Writer {
  const Store& s;
  const WriteOptions& opts;
  std::string& out;

  /// Append one token, after a space if it would otherwise glue onto the
  /// previous one (`1- -1`, `Y= -5`).
  void token(std::string_view text) {
    if (!out.empty() && !text.empty() && glues(out.back(), text.front())) out += ' ';
    out += text;
  }

  [[gnu::noinline]] void atom(Symbol sym, bool functor = false) {
    const std::string& name = symbol_name(sym);
    // `[]` reads as the atom, but `[](` does not read as a functor.
    if (!opts.quoted || !(atom_needs_quotes(name) || (functor && name == "[]")))
      return token(name);
    out += '\'';
    for (char c : name) {
      if (c == '\'') out += '\'';
      out += c;
    }
    out += '\'';
  }

  /// A prefix-operator atom is bracketed where the reader would apply it
  /// to the operator token that follows (`(-)=a`). The reader decides at
  /// the priority `spine_max` of the call that reads the term's first
  /// token, which differs from the operand priority on a left spine.
  bool bracket_atom(Symbol sym, int spine_max, bool before_infix) const {
    if (!before_infix) return false;
    const OpDef* op = operator_for(sym, 1);
    return op != nullptr && op->priority <= spine_max;
  }

  /// How the rendering of `t` at `max_prec` starts. Walks the left spine
  /// of infix operators only, so it costs no more than writing them.
  [[gnu::noinline]] Lead leading(TermRef t, int max_prec, bool before_infix) const {
    const int spine_max = max_prec;
    for (;;) {
      t = s.deref(t);
      Symbol first;
      switch (s.tag(t)) {
        case Tag::Var: return Lead::Other;
        case Tag::Int: return Lead::Number;
        case Tag::Atom:
          first = s.atom_name(t);
          if (bracket_atom(first, spine_max, before_infix)) return Lead::Open;
          return first == comma_symbol() ? Lead::Comma : Lead::Other;
        case Tag::Struct:
          first = s.functor(t);
          break;
      }
      const OpDef* op = operator_for(first, s.arity(t));
      if (op != nullptr && op->priority > max_prec) return Lead::Open;
      if (op == nullptr || op->prefix())
        return first == comma_symbol() ? Lead::Comma : Lead::Other;
      max_prec = op->left_max();
      before_infix = op->name != ",";
      t = s.arg(t, 0);
    }
  }

  // Leaves are written out of line to keep the recursive frames small.
  [[gnu::noinline]] void var(TermRef t) {
    const Symbol name = s.var_name(t);
    if (!name.empty() && symbol_name(name) != "_") return token(symbol_name(name));
    token(opts.number_vars ? "_G" + std::to_string(t) : "_");
  }

  [[gnu::noinline]] void number(std::int64_t v) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    token(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  }

  [[gnu::noinline]] void operand_atom(Symbol name, int spine_max, bool before_infix) {
    if (!bracket_atom(name, spine_max, before_infix)) return atom(name);
    token("(");
    atom(name);
    out += ')';
  }

  /// Write `t` where the context admits priority `max_prec`. `spine_max`
  /// is the priority of the reader call that reads `t`'s first token
  /// (`max_prec` except on a left spine); `before_infix` says the token
  /// after `t` is an infix operator other than `,`.
  void write(TermRef t, int max_prec, int spine_max, bool before_infix) {
    t = s.deref(t);
    switch (s.tag(t)) {
      case Tag::Var: return var(t);
      case Tag::Atom: return operand_atom(s.atom_name(t), spine_max, before_infix);
      case Tag::Int: return number(s.int_value(t));
      case Tag::Struct: break;
    }

    const Symbol f = s.functor(t);
    const auto ar = s.arity(t);
    if (f == cons_symbol() && ar == 2) return list(t);
    if (const OpDef* op = operator_for(f, ar)) {
      if (op->priority <= max_prec) return operation(*op, t, spine_max, before_infix);
      token("(");
      operation(*op, t, 1200, false);
      out += ')';
      return;
    }

    atom(f, /*functor=*/true);
    out += '(';
    for (std::uint32_t i = 0; i < ar; ++i) {
      if (i) out += ',';
      write(s.arg(t, i), 999, 999, false);
    }
    out += ')';
  }

  /// Write operator term `t` of row `op` in operator form.
  void operation(const OpDef& op, TermRef t, int spine_max, bool before_infix) {
    if (op.prefix()) {
      token(op.name);
      // Where the operand would not read back after the bare operator,
      // functional notation does: `-(1)`, `-(a*b)`, `-((a,b))`, `-(,)`.
      const TermRef arg = s.arg(t, 0);
      const Lead lead = leading(arg, op.right_max(), before_infix);
      if (lead == Lead::Open || lead == Lead::Comma ||
          (lead == Lead::Number && op.name == "-")) {
        out += '(';
        write(arg, 999, 999, false);
        out += ')';
      } else {
        write(arg, op.right_max(), op.right_max(), before_infix);
      }
      return;
    }
    write(s.arg(t, 0), op.left_max(), spine_max, op.name != ",");
    if (is_alnum(op.name.front())) {
      out += ' ';
      out += op.name;
      out += ' ';
    } else {
      token(op.name);
    }
    write(s.arg(t, 1), op.right_max(), op.right_max(), before_infix);
  }

  [[gnu::noinline]] void list(TermRef t) {
    out += '[';
    write(s.arg(t, 0), 999, 999, false);
    TermRef tail = s.deref(s.arg(t, 1));
    while (s.is_struct(tail) && s.functor(tail) == cons_symbol() && s.arity(tail) == 2) {
      out += ',';
      write(s.arg(tail, 0), 999, 999, false);
      tail = s.deref(s.arg(tail, 1));
    }
    if (!(s.is_atom(tail) && s.atom_name(tail) == nil_symbol())) {
      out += '|';
      write(tail, 999, 999, false);
    }
    out += ']';
  }
};

}  // namespace

void write_term(std::string& out, const Store& store, TermRef t, const WriteOptions& opts,
                int max_priority) {
  Writer{store, opts, out}.write(t, max_priority, max_priority, false);
}

std::string to_string(const Store& store, TermRef t, const WriteOptions& opts) {
  std::string out;
  write_term(out, store, t, opts);
  return out;
}

}  // namespace blog::term
