/// \file
/// \brief Bottom-up groundness/mode fixpoint (the first analysis pass).
///
/// A Kleene iteration over the clause database: every predicate starts at
/// Bottom ("no successful derivation seen"); each round simulates every
/// clause body left to right, growing the set of provably ground clause
/// variables from the current success patterns of the callees (a builtin
/// contributes the axiom column of its `BLOG_BUILTINS` row in
/// engine/builtins.hpp — `is/2` grounds both sides on success, comparisons
/// ground their operands, `==/2` grounds nothing), and joins the resulting
/// head patterns per predicate. Inputs only ever
/// ascend the lattice, so the recomputation is monotone and the fixpoint
/// is reached in a bounded number of rounds.
#pragma once

#include <unordered_map>
#include <unordered_set>

#include "blog/analysis/domain.hpp"

namespace blog::analysis {

/// Map filled by the fixpoint (success_modes / proven_succeeds per
/// predicate; the other PredicateInfo fields are other passes' business).
using PredInfoMap = std::unordered_map<db::Pred, PredicateInfo, db::PredHash>;

/// Run the fixpoint over `program`, creating/updating one entry per
/// defined predicate in `out`. Returns the number of rounds taken.
std::size_t infer_groundness(const db::Program& program, PredInfoMap& out);

/// Re-simulate one clause body under the final `modes`: `result[i]` is the
/// set of clause-store variables proven ground before body goal `i` runs
/// (`result.back()`, at index body-size, is the state after the whole
/// body). Used by the clause-level independence pass and by `:analyze`.
std::vector<std::unordered_set<term::TermRef>> ground_prefix_sets(
    const db::Program& program, const db::Clause& clause,
    const PredInfoMap& modes);

}  // namespace blog::analysis
