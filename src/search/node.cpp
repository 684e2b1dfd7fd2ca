#include "blog/search/node.hpp"
#include <algorithm>
#include <limits>

#include "blog/analysis/domain.hpp"

namespace blog::search {

std::uint32_t chain_length(const Chain* c) {
  std::uint32_t n = 0;
  for (; c != nullptr; c = c->parent.get()) ++n;
  return n;
}

Expander::Expander(const db::Program& program, const db::WeightStore& weights,
                   BuiltinEvaluator* builtins, ExpanderOptions opts)
    : program_(program), weights_(weights), builtins_(builtins), opts_(opts) {}

std::uint64_t Expander::next_id() const {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

DetachedNode Expander::make_root(const Query& q) const {
  DetachedNode root;
  term::VarMap vmap;
  // The answer template must share variables with the goals, so import it
  // first through the same variable map.
  if (q.answer != term::kNullTerm)
    root.answer = root.store.import(q.store, q.answer, vmap);
  root.goals.reserve(q.goals.size());
  for (std::size_t i = 0; i < q.goals.size(); ++i) {
    Goal g;
    g.term = root.store.import(q.store, q.goals[i], vmap);
    g.src_clause = db::kQueryClause;
    g.src_literal = static_cast<std::uint32_t>(i);
    root.goals.push_back(g);
  }
  root.id = next_id();
  return root;
}

void Expander::select_goal(const term::Store& store, std::vector<Goal>& goals,
                           const Chain* parent_chain) const {
  if (opts_.goal_order == GoalOrder::Leftmost || goals.size() < 2) return;

  // Only goals before the first builtin are candidates: hoisting a goal
  // past an `is`/comparison would evaluate it with unbound inputs.
  std::size_t limit = goals.size();
  if (builtins_ != nullptr) {
    for (std::size_t i = 0; i < goals.size(); ++i) {
      if (builtins_->is_builtin(db::pred_of(store, goals[i].term))) {
        limit = i;
        break;
      }
    }
  }
  if (limit < 2) return;

  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < limit; ++i) {
    const Goal& g = goals[i];
    const std::span<const db::ClauseId> cands = candidates_for(store, g);
    double score;
    if (opts_.goal_order == GoalOrder::SmallestFanout) {
      score = static_cast<double>(cands.size());
    } else {  // CheapestPointer
      score = std::numeric_limits<double>::infinity();
      for (const db::ClauseId cid : cands) {
        db::PointerKey key{g.src_clause, g.src_literal, cid};
        // Same context key make_arc charges: without it, conditional
        // weights would order goals by different weights than the search
        // actually pays.
        if (opts_.conditional_weights)
          key.context =
              parent_chain ? parent_chain->arc.key.callee : db::kQueryClause;
        score = std::min(score, weights_.weight(key));
      }
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  if (best != 0) {
    std::rotate(goals.begin(), goals.begin() + static_cast<std::ptrdiff_t>(best),
                goals.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
}

std::span<const db::ClauseId> Expander::candidates_for(
    const term::Store& store, const Goal& goal) const {
  const db::Pred pred = db::pred_of(store, goal.term);
  if (opts_.first_arg_indexing)
    return program_.candidates_indexed(pred, store, goal.term);
  return program_.candidates(pred);
}

const analysis::PredicateInfo* Expander::pred_info(const db::Pred& p) const {
  if (!opts_.static_analysis) return nullptr;
  const auto& a = program_.analysis();
  return a ? a->info(p) : nullptr;
}

Arc Expander::make_arc(const Goal& goal, db::ClauseId clause,
                       const Chain* parent_chain) const {
  Arc arc;
  arc.key = db::PointerKey{goal.src_clause, goal.src_literal, clause};
  if (opts_.conditional_weights) {
    arc.key.context =
        parent_chain ? parent_chain->arc.key.callee : db::kQueryClause;
  }
  arc.cell = &weights_.cell(arc.key);
  arc.weight = weights_.weight(*arc.cell);
  return arc;
}

DetachedNode Expander::make_child(const DetachedNode& parent, const db::Clause& /*clause*/,
                          term::TermRef /*renamed_head*/,
                          const std::vector<term::TermRef>& renamed_body,
                          const Arc& arc, ExpandStats* stats) const {
  DetachedNode child;
  term::VarMap vmap;
  if (parent.answer != term::kNullTerm)
    child.answer = child.store.import(parent.store, parent.answer, vmap);

  // New goal list: the clause body (renamed, already unified against the
  // goal inside the parent store), then the parent's remaining goals.
  child.goals.reserve(renamed_body.size() + parent.goals.size() - 1);
  for (std::size_t i = 0; i < renamed_body.size(); ++i) {
    Goal g;
    g.term = child.store.import(parent.store, renamed_body[i], vmap);
    g.src_clause = arc.key.callee;
    g.src_literal = static_cast<std::uint32_t>(i);
    child.goals.push_back(g);
  }
  for (std::size_t i = 1; i < parent.goals.size(); ++i) {
    Goal g = parent.goals[i];
    g.term = child.store.import(parent.store, parent.goals[i].term, vmap);
    child.goals.push_back(g);
  }

  child.bound = parent.bound + arc.weight;
  child.depth = parent.depth + 1;
  child.chain = std::make_shared<Chain>(Chain{arc, parent.chain});
  child.id = next_id();
  child.parent_id = parent.id;
  child.fork_tag = parent.fork_tag;
  if (stats) {
    stats->cells_copied += child.store.size();
    ++stats->detaches;
  }
  return child;
}

void Expander::expand(DetachedNode n, ExpandOutput& out, ExpandStats* stats) const {
  out.children.clear();
  // Consume leading builtin goals in place (they are deterministic).
  term::Trail trail;
  while (!n.goals.empty() && builtins_ != nullptr) {
    const auto outcome = builtins_->eval(n.store, n.goals.front().term, trail);
    if (outcome == BuiltinEvaluator::Outcome::NotBuiltin) break;
    if (stats) ++stats->builtin_calls;
    if (outcome == BuiltinEvaluator::Outcome::Fail) {
      out.outcome = NodeOutcome::Failure;
      out.final_node = std::move(n);
      return;
    }
    n.goals.erase(n.goals.begin());
  }
  if (n.goals.empty()) {
    out.outcome = NodeOutcome::Solution;
    out.final_node = std::move(n);
    return;
  }
  if (n.depth >= opts_.max_depth) {
    out.outcome = NodeOutcome::DepthLimit;
    out.final_node = std::move(n);
    return;
  }

  select_goal(n.store, n.goals, n.chain.get());
  const Goal& goal = n.goals.front();
  const std::span<const db::ClauseId> cands = candidates_for(n.store, goal);

  bool any = false;
  term::VarMap vmap;
  for (const db::ClauseId cid : cands) {
    const db::Clause& clause = program_.clause(cid);
    // Rename the clause into the parent store, attempt head unification.
    vmap.clear();
    const term::TermRef head = n.store.import(clause.store(), clause.head(), vmap);
    std::vector<term::TermRef> body(clause.body().size());
    for (std::size_t i = 0; i < body.size(); ++i)
      body[i] = n.store.import(clause.store(), clause.body()[i], vmap);

    const std::size_t mark = trail.mark();
    term::UnifyStats ustats;
    const bool ok = term::unify(n.store, goal.term, head, trail,
                                {.occurs_check = opts_.occurs_check}, &ustats);
    if (stats) {
      ++stats->unify_attempts;
      stats->unify_cells += ustats.cells_visited;
      if (ok) ++stats->unify_successes;
    }
    if (ok) {
      const Arc arc = make_arc(goal, cid, n.chain.get());
      out.children.push_back(make_child(n, clause, head, body, arc, stats));
      any = true;
    }
    trail.undo_to(mark, n.store);
  }
  out.outcome = any ? NodeOutcome::Expanded : NodeOutcome::Failure;
  // n's bindings have been undone above; keep the post-builtin state for
  // observers regardless of outcome.
  out.final_node = std::move(n);
}

}  // namespace blog::search
