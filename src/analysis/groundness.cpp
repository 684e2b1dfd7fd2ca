#include "blog/analysis/groundness.hpp"

#include <algorithm>

#include "blog/db/program.hpp"
#include "blog/engine/builtins.hpp"
#include "blog/term/unify.hpp"

namespace blog::analysis {
namespace {

using VarSet = std::unordered_set<term::TermRef>;

bool subset_of(const std::vector<term::TermRef>& vars, const VarSet& g) {
  return std::all_of(vars.begin(), vars.end(),
                     [&](term::TermRef v) { return g.contains(v); });
}

void add_all(const std::vector<term::TermRef>& vars, VarSet& g) {
  g.insert(vars.begin(), vars.end());
}

/// Simulate one body goal's success effect on `g`. Returns false when the
/// goal provably cannot succeed under the current approximation (the
/// clause is skipped this round).
bool simulate_goal(const term::Store& s, term::TermRef goal,
                   const PredInfoMap& modes, VarSet& g) {
  goal = s.deref(goal);  // clause stores hold unbound vars; deref is a no-op
  if (s.is_var(goal)) return true;  // metacall: may succeed, grounds nothing
  if (!s.is_atom(goal) && !s.is_struct(goal)) return false;  // `:- 42.`
  const db::Pred p = db::pred_of(s, goal);
  std::vector<term::TermRef> va;
  std::vector<term::TermRef> vb;
  // A builtin's success effect is its BLOG_BUILTINS axiom.
  if (const auto id = engine::find_builtin(p)) {
    switch (engine::builtin_row(*id).axiom) {
      case engine::BuiltinAxiom::True:
      case engine::BuiltinAxiom::NoEffect:
        return true;
      case engine::BuiltinAxiom::Fail:
        return false;
      case engine::BuiltinAxiom::Unify: {
        term::collect_vars(s, s.arg(goal, 0), va);
        term::collect_vars(s, s.arg(goal, 1), vb);
        // Both subset tests read the pre-goal state; grounding one side
        // from the other is only sound when that other side was already
        // ground.
        const bool lg = subset_of(va, g);
        const bool rg = subset_of(vb, g);
        if (lg) add_all(vb, g);
        if (rg) add_all(va, g);
        return true;
      }
      case engine::BuiltinAxiom::Eval:
      case engine::BuiltinAxiom::TypeGround:
        // Success implies every operand is ground: arithmetic evaluates
        // only fully ground numeric operands, and the type tests hold only
        // for ground arguments.
        for (std::uint32_t i = 0; i < s.arity(goal); ++i) {
          va.clear();
          term::collect_vars(s, s.arg(goal, i), va);
          add_all(va, g);
        }
        return true;
    }
  }
  // User predicate: its current success pattern grounds the matching
  // argument positions. A predicate with no clauses, or one still at
  // Bottom, cannot (yet) succeed — skip the clause this round.
  const auto it = modes.find(p);
  if (it == modes.end() || !it->second.proven_succeeds) return false;
  for (std::uint32_t k = 0; k < p.arity; ++k) {
    if (it->second.success_modes[k] != Mode::Ground) continue;
    va.clear();
    term::collect_vars(s, s.arg(goal, k), va);
    add_all(va, g);
  }
  return true;
}

/// Count every variable occurrence (with multiplicity) in head + body.
void count_occurrences(const term::Store& s, term::TermRef t,
                       std::unordered_map<term::TermRef, std::size_t>& n) {
  t = s.deref(t);
  if (s.is_var(t)) {
    ++n[t];
    return;
  }
  if (s.is_struct(t))
    for (std::uint32_t i = 0; i < s.arity(t); ++i)
      count_occurrences(s, s.arg(t, i), n);
}

/// One clause's head contribution under the ground set `g` reached after
/// its body. Returns false when the body cannot succeed this round.
bool clause_pattern(const db::Clause& c, const PredInfoMap& modes,
                    std::vector<Mode>& out) {
  const term::Store& s = c.store();
  VarSet g;
  for (const term::TermRef goal : c.body())
    if (!simulate_goal(s, goal, modes, g)) return false;

  const db::Pred p = c.pred();
  out.assign(p.arity, Mode::Unknown);
  if (p.arity == 0) return true;
  std::unordered_map<term::TermRef, std::size_t> occ;
  count_occurrences(s, c.head(), occ);
  for (const term::TermRef goal : c.body()) count_occurrences(s, goal, occ);

  std::vector<term::TermRef> vars;
  const term::TermRef head = s.deref(c.head());
  for (std::uint32_t k = 0; k < p.arity; ++k) {
    const term::TermRef a = s.arg(head, k);
    vars.clear();
    term::collect_vars(s, a, vars);
    if (subset_of(vars, g)) {
      out[k] = Mode::Ground;
    } else if (s.is_var(s.deref(a)) && occ[s.deref(a)] == 1) {
      // A head variable occurring nowhere else: the callee leaves it
      // untouched on success.
      out[k] = Mode::Free;
    } else {
      out[k] = Mode::Unknown;
    }
  }
  return true;
}

}  // namespace

std::size_t infer_groundness(const db::Program& program, PredInfoMap& out) {
  // Seed every defined predicate at Bottom.
  for (const db::Pred& p : program.predicates()) {
    PredicateInfo& info = out[p];
    info.success_modes.assign(p.arity, Mode::Bottom);
    info.proven_succeeds = false;
  }

  // Kleene iteration: recompute every predicate's pattern from the
  // previous round's map; inputs only ascend, so so do outputs, and the
  // loop terminates (lattice height 2 per argument). The cap is a
  // belt-and-braces backstop, never reached for a monotone recomputation.
  std::size_t rounds = 0;
  const std::size_t cap = 4 + 2 * out.size() * 8;
  std::vector<Mode> pattern;
  for (; rounds < cap; ++rounds) {
    bool changed = false;
    PredInfoMap next = out;
    for (const db::Pred& p : program.predicates()) {
      PredicateInfo& info = next[p];
      std::vector<Mode> joined(p.arity, Mode::Bottom);
      bool succeeds = false;
      for (const db::ClauseId cid : program.candidates(p)) {
        if (!clause_pattern(program.clause(cid), out, pattern)) continue;
        succeeds = true;
        for (std::uint32_t k = 0; k < p.arity; ++k)
          joined[k] = join(joined[k], pattern[k]);
      }
      if (succeeds != info.proven_succeeds || joined != info.success_modes)
        changed = true;
      info.proven_succeeds = succeeds;
      info.success_modes = std::move(joined);
    }
    out = std::move(next);
    if (!changed) break;
  }
  return rounds + 1;
}

std::vector<std::unordered_set<term::TermRef>> ground_prefix_sets(
    const db::Program& program, const db::Clause& clause,
    const PredInfoMap& modes) {
  (void)program;
  std::vector<VarSet> prefix;
  prefix.reserve(clause.body().size() + 1);
  VarSet g;
  prefix.push_back(g);
  for (const term::TermRef goal : clause.body()) {
    // A goal that cannot succeed grounds nothing; keep simulating so every
    // prefix set is defined (smaller sets are always sound).
    simulate_goal(clause.store(), goal, modes, g);
    prefix.push_back(g);
  }
  return prefix;
}

}  // namespace blog::analysis
