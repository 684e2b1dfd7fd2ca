#include "blog/engine/builtins.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>

namespace blog::engine {
namespace {

// Overflow-checked int64 ops: arithmetic that leaves the representable
// range is undefined in the evaluation sense (the goal fails), never
// undefined behaviour.
std::optional<std::int64_t> checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return std::nullopt;
  return r;
}
std::optional<std::int64_t> checked_sub(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) return std::nullopt;
  return r;
}
std::optional<std::int64_t> checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

}  // namespace

std::optional<std::int64_t> eval_arith(const term::Store& s, term::TermRef t) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  t = s.deref(t);
  if (s.is_int(t)) return s.int_value(t);
  if (!s.is_struct(t)) return std::nullopt;
  const std::string& f = symbol_name(s.functor(t));
  const auto ar = s.arity(t);
  if (ar == 1) {
    const auto a = eval_arith(s, s.arg(t, 0));
    if (!a) return std::nullopt;
    if (f == "-") return checked_sub(0, *a);
    if (f == "+") return *a;
    if (f == "abs") {
      if (*a == kMin) return std::nullopt;  // |INT64_MIN| overflows
      return *a < 0 ? -*a : *a;
    }
    return std::nullopt;
  }
  if (ar != 2) return std::nullopt;
  const auto a = eval_arith(s, s.arg(t, 0));
  const auto b = eval_arith(s, s.arg(t, 1));
  if (!a || !b) return std::nullopt;
  if (f == "+") return checked_add(*a, *b);
  if (f == "-") return checked_sub(*a, *b);
  if (f == "*") return checked_mul(*a, *b);
  if (f == "//") {
    if (*b == 0) return std::nullopt;
    if (*a == kMin && *b == -1) return std::nullopt;  // quotient overflows
    return *a / *b;
  }
  if (f == "mod") {
    if (*b == 0) return std::nullopt;
    if (*b == -1) return 0;  // INT64_MIN % -1 traps; result is 0 for all a
    std::int64_t m = *a % *b;
    if ((m ^ *b) < 0 && m != 0) m += *b;  // Prolog mod follows divisor sign
    return m;
  }
  if (f == "min") return std::min(*a, *b);
  if (f == "max") return std::max(*a, *b);
  return std::nullopt;
}

namespace {

constexpr std::uint32_t kMaxBuiltinArity = [] {
  std::uint32_t m = 0;
  for (const BuiltinRow& row : kBuiltins) m = std::max(m, row.arity);
  return m;
}();

/// The `BLOG_BUILTINS` rows grouped by arity, names interned: a lookup
/// compares only the names of rows with the goal's arity.
struct BuiltinIndex {
  struct Entry {
    Symbol name;
    BuiltinId id;
  };
  std::array<std::array<Entry, std::size(kBuiltins)>, kMaxBuiltinArity + 1> rows{};
  std::array<std::size_t, kMaxBuiltinArity + 1> count{};

  BuiltinIndex() {
    for (std::size_t i = 0; i < std::size(kBuiltins); ++i) {
      const std::uint32_t a = kBuiltins[i].arity;
      rows[a][count[a]++] = {intern(kBuiltins[i].name), static_cast<BuiltinId>(i)};
    }
  }
};

/// An arithmetic comparison: both sides must evaluate.
template <class Cmp>
search::BuiltinEvaluator::Outcome arith_compare(const term::Store& s,
                                                term::TermRef goal, Cmp cmp) {
  const auto a = eval_arith(s, s.arg(goal, 0));
  const auto b = eval_arith(s, s.arg(goal, 1));
  return a && b && cmp(*a, *b) ? search::BuiltinEvaluator::Outcome::True
                               : search::BuiltinEvaluator::Outcome::Fail;
}

}  // namespace

std::optional<BuiltinId> find_builtin(const db::Pred& p) {
  static const BuiltinIndex index;
  if (p.arity > kMaxBuiltinArity) return std::nullopt;
  const auto& rows = index.rows[p.arity];
  for (std::size_t i = 0; i < index.count[p.arity]; ++i)
    if (rows[i].name == p.name) return rows[i].id;
  return std::nullopt;
}

StandardBuiltins::Outcome StandardBuiltins::eval(term::Store& s, term::TermRef goal,
                                                 term::Trail& trail) {
  goal = s.deref(goal);
  const std::optional<BuiltinId> id = find_builtin(db::pred_of(s, goal));
  if (!id) return Outcome::NotBuiltin;

  auto truth = [](bool b) { return b ? Outcome::True : Outcome::Fail; };
  auto arg = [&](std::uint32_t i) { return s.deref(s.arg(goal, i)); };

  switch (*id) {
    case BuiltinId::kTrue: return Outcome::True;
    case BuiltinId::kFail: return Outcome::Fail;
    case BuiltinId::kUnify: return truth(term::unify(s, arg(0), arg(1), trail));
    case BuiltinId::kNotUnifiable: {
      // Negation as failure of unification; sound for ground pairs, the
      // usual Prolog caveat applies otherwise.
      const std::size_t mark = trail.mark();
      const bool ok = term::unify(s, arg(0), arg(1), trail);
      trail.undo_to(mark, s);
      return truth(!ok);
    }
    case BuiltinId::kIdentical: return truth(term::Store::equal(s, arg(0), s, arg(1)));
    case BuiltinId::kNotIdentical: return truth(!term::Store::equal(s, arg(0), s, arg(1)));
    case BuiltinId::kIs: {
      const auto v = eval_arith(s, arg(1));
      return truth(v && term::unify(s, arg(0), s.make_int(*v), trail));
    }
    case BuiltinId::kLess: return arith_compare(s, goal, std::less<>{});
    case BuiltinId::kGreater: return arith_compare(s, goal, std::greater<>{});
    case BuiltinId::kLessEq: return arith_compare(s, goal, std::less_equal<>{});
    case BuiltinId::kGreaterEq: return arith_compare(s, goal, std::greater_equal<>{});
    case BuiltinId::kArithEq: return arith_compare(s, goal, std::equal_to<>{});
    case BuiltinId::kArithNe: return arith_compare(s, goal, std::not_equal_to<>{});
    case BuiltinId::kVar: return truth(s.is_var(arg(0)));
    case BuiltinId::kNonvar: return truth(!s.is_var(arg(0)));
    case BuiltinId::kAtom: return truth(s.is_atom(arg(0)));
    case BuiltinId::kInteger: return truth(s.is_int(arg(0)));
    case BuiltinId::kGround: return truth(term::is_ground(s, arg(0)));
  }
  return Outcome::Fail;
}

}  // namespace blog::engine
