// Deterministic builtin predicates: unification, disunification, arithmetic
// evaluation and comparison, type tests. Kept deterministic so they never
// create OR-tree arcs (builtins carry no weights — only database pointers
// do, per §5).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "blog/search/node.hpp"

namespace blog::engine {

/// What a builtin's success proves about the groundness of its arguments.
/// The groundness analysis (analysis/groundness.cpp) simulates a builtin
/// goal by this column alone; `StandardBuiltins::eval` must never succeed
/// in a way that contradicts it.
enum class BuiltinAxiom : std::uint8_t {
  True,        ///< succeeds, grounds nothing
  Fail,        ///< never succeeds
  Unify,       ///< a side that was ground grounds the other side
  Eval,        ///< succeeds only over ground arithmetic operands
  TypeGround,  ///< success implies the argument is ground
  NoEffect,    ///< grounds nothing
};

/// X-macro table of every builtin predicate: `X(Id, "name", arity, axiom)`.
/// `StandardBuiltins` recognizes and dispatches these rows and the
/// groundness analysis reads their axioms; docs/ANALYSIS.md's builtin
/// table lists the same rows (tools/lint_blog.py checks both ways).
#define BLOG_BUILTINS(X)                  \
  X(True, "true", 0, True)                \
  X(Fail, "fail", 0, Fail)                \
  X(Unify, "=", 2, Unify)                 \
  X(NotUnifiable, "\\=", 2, NoEffect)     \
  X(Identical, "==", 2, NoEffect)         \
  X(NotIdentical, "\\==", 2, NoEffect)    \
  X(Is, "is", 2, Eval)                    \
  X(Less, "<", 2, Eval)                   \
  X(Greater, ">", 2, Eval)                \
  X(LessEq, "=<", 2, Eval)                \
  X(GreaterEq, ">=", 2, Eval)             \
  X(ArithEq, "=:=", 2, Eval)              \
  X(ArithNe, "=\\=", 2, Eval)             \
  X(Var, "var", 1, NoEffect)              \
  X(Nonvar, "nonvar", 1, NoEffect)        \
  X(Atom, "atom", 1, TypeGround)          \
  X(Integer, "integer", 1, TypeGround)    \
  X(Ground, "ground", 1, TypeGround)

/// One enumerator per `BLOG_BUILTINS` row, in table order.
enum class BuiltinId : std::uint8_t {
#define BLOG_BUILTIN_ENUM(id, name, arity, axiom) k##id,
  BLOG_BUILTINS(BLOG_BUILTIN_ENUM)
#undef BLOG_BUILTIN_ENUM
};

/// One `BLOG_BUILTINS` row.
struct BuiltinRow {
  std::string_view name;
  std::uint32_t arity;
  BuiltinAxiom axiom;
};

inline constexpr BuiltinRow kBuiltins[] = {
#define BLOG_BUILTIN_ROW(id, name, arity, axiom) {name, arity, BuiltinAxiom::axiom},
    BLOG_BUILTINS(BLOG_BUILTIN_ROW)
#undef BLOG_BUILTIN_ROW
};

[[nodiscard]] constexpr const BuiltinRow& builtin_row(BuiltinId id) {
  return kBuiltins[static_cast<std::size_t>(id)];
}

/// The builtin named by `p`, or std::nullopt for a database predicate. A
/// few symbol compares: no hashing, no allocation (it runs on every
/// leading goal).
[[nodiscard]] std::optional<BuiltinId> find_builtin(const db::Pred& p);

/// Evaluate an arithmetic expression over integers: + - * // mod abs min
/// max. Returns std::nullopt on unbound variables or bad functors.
std::optional<std::int64_t> eval_arith(const term::Store& s, term::TermRef t);

/// The `BLOG_BUILTINS` evaluator.
class StandardBuiltins final : public search::BuiltinEvaluator {
public:
  Outcome eval(term::Store& s, term::TermRef goal, term::Trail& trail) override;

  /// True if name/arity is a `BLOG_BUILTINS` row.
  [[nodiscard]] bool is_builtin(const db::Pred& p) const override {
    return find_builtin(p).has_value();
  }
};

}  // namespace blog::engine
