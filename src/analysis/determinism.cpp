#include "blog/analysis/determinism.hpp"

#include <optional>
#include <unordered_set>

#include "blog/db/index.hpp"
#include "blog/db/program.hpp"
#include "blog/term/unify.hpp"

namespace blog::analysis {
namespace {

/// First-argument key of a clause head, or nullopt for var-headed clauses
/// (and for arity-0 predicates, which have no first argument to index on).
std::optional<db::FirstArgKey> head_key(const db::Clause& c) {
  if (c.pred().arity == 0) return std::nullopt;
  const term::Store& s = c.store();
  return db::first_arg_key(s, s.arg(s.deref(c.head()), 0));
}

/// Can the heads of two clauses unify with each other? Renames both into a
/// scratch store (fresh variables, disjoint between the two) and runs the
/// trailed unifier. An affirmative answer means some goal instantiation
/// can match both clauses — they are not mutually exclusive.
bool heads_unify(const db::Clause& a, const db::Clause& b) {
  term::Store scratch;
  term::VarMap vmap;
  const term::TermRef ha = scratch.import(a.store(), a.head(), vmap);
  vmap.clear();  // rename b apart from a
  const term::TermRef hb = scratch.import(b.store(), b.head(), vmap);
  term::Trail trail;
  return term::unify(scratch, ha, hb, trail);
}

}  // namespace

void infer_determinism(const db::Program& program, PredInfoMap& out,
                       std::size_t mutex_clause_cap) {
  for (const db::Pred& p : program.predicates()) {
    PredicateInfo& info = out[p];
    const std::vector<db::ClauseId>& cids = program.candidates(p);
    info.clause_count = cids.size();

    info.all_facts = true;
    info.all_ground_facts = true;
    bool any_var_head = false;
    bool duplicate_key = false;
    std::unordered_set<std::size_t> seen_keys;
    std::vector<std::optional<db::FirstArgKey>> keys;
    keys.reserve(cids.size());
    for (const db::ClauseId cid : cids) {
      const db::Clause& c = program.clause(cid);
      if (!c.is_fact()) info.all_facts = false;
      if (!c.is_fact() || !term::is_ground(c.store(), c.head()))
        info.all_ground_facts = false;
      std::optional<db::FirstArgKey> k = head_key(c);
      if (!k) {
        any_var_head = true;
      } else if (!seen_keys.insert(db::FirstArgKeyHash{}(*k)).second) {
        // Hash collision counts as a duplicate — only ever conservative.
        duplicate_key = true;
      }
      keys.push_back(std::move(k));
    }

    // Unique-key determinism: every bucket holds at most one clause. A
    // var-headed clause lands in every bucket, so a single clause is the
    // only var-head shape that qualifies.
    info.det_unique_key =
        cids.size() <= 1 || (!any_var_head && !duplicate_key);

    // Pairwise head mutual exclusion. Pairs with distinct non-var keys
    // cannot unify by the indexing invariant; everything else gets the
    // exact (renamed) head-unification test, capped to keep consult-time
    // analysis from going quadratic on huge fact tables.
    if (cids.size() <= 1) {
      info.det_mutex_heads = true;
    } else if (cids.size() > mutex_clause_cap) {
      info.det_mutex_heads = false;  // unverified, stay conservative
    } else {
      bool mutex = true;
      for (std::size_t i = 0; i + 1 < cids.size() && mutex; ++i) {
        for (std::size_t j = i + 1; j < cids.size() && mutex; ++j) {
          if (keys[i] && keys[j] && !(*keys[i] == *keys[j])) continue;
          if (heads_unify(program.clause(cids[i]), program.clause(cids[j])))
            mutex = false;
        }
      }
      info.det_mutex_heads = mutex;
    }
  }
}

}  // namespace blog::analysis
