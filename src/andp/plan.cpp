#include "blog/andp/plan.hpp"

#include <algorithm>
#include <array>

#include "blog/analysis/domain.hpp"
#include "blog/analysis/independence.hpp"
#include "blog/search/engine.hpp"

namespace blog::andp {
namespace {

Symbol answer_functor() {
  static const Symbol s = intern("$ans");
  return s;
}

Symbol fork_functor() {
  static const Symbol s = intern("$andp");
  return s;
}

}  // namespace

const char* fork_mode_name(ForkMode m) {
  switch (m) {
    case ForkMode::Static: return "static";
    case ForkMode::Runtime: return "runtime";
    case ForkMode::Off: return "off";
  }
  return "?";
}

void flatten_conjunction(const term::Store& s, term::TermRef t,
                         std::vector<term::TermRef>& out) {
  t = s.deref(t);
  if (s.is_struct(t) && s.functor(t) == term::comma_symbol() &&
      s.arity(t) == 2) {
    flatten_conjunction(s, s.arg(t, 0), out);
    flatten_conjunction(s, s.arg(t, 1), out);
    return;
  }
  out.push_back(t);
}

std::vector<std::pair<Symbol, term::TermRef>> slice_columns(
    const term::Store& store,
    const std::vector<std::pair<Symbol, term::TermRef>>& columns,
    const std::vector<term::TermRef>& goals,
    std::span<const std::size_t> goal_idx, GoalVarCache& cache) {
  std::vector<std::pair<Symbol, term::TermRef>> out;
  for (const auto& [name, v] : columns) {
    const term::TermRef dv = store.deref(v);
    for (const std::size_t gi : goal_idx) {
      const auto& gv = cache.vars(goals[gi]);
      if (dv == goals[gi] || std::find(gv.begin(), gv.end(), dv) != gv.end()) {
        out.emplace_back(name, v);
        break;
      }
    }
  }
  return out;
}

std::string column_text(const term::Store& s, term::TermRef value,
                        bool instance) {
  return instance ? search::solution_text(s, value)
                  : search::binding_value_text(s, value);
}

bool statically_all_ground(const engine::Interpreter& ip, const term::Store& s,
                           std::span<const term::TermRef> goals,
                           bool static_analysis) {
  if (!static_analysis) return false;
  const auto& a = ip.program().analysis();
  if (!a) return false;
  for (const term::TermRef g : goals) {
    const term::TermRef d = s.deref(g);
    if (!s.is_atom(d) && !s.is_struct(d)) return false;
    const analysis::PredicateInfo* pi = a->info(db::pred_of(s, d));
    if (pi == nullptr || !pi->all_ground_success()) return false;
  }
  return true;
}

namespace {

/// Build one work item over `goal_idx`, wrapping its answer template as
/// $andp(id, $ans(V...)) so solutions self-identify at the join.
WorkItem make_item(engine::Interpreter& ip, const term::Store& store,
                   const std::vector<std::pair<Symbol, term::TermRef>>& columns,
                   const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                   std::size_t id, std::size_t group,
                   std::vector<std::size_t> goal_idx, bool static_analysis) {
  WorkItem item;
  item.id = id;
  item.group = group;
  item.goal_indices = std::move(goal_idx);
  item.vars = slice_columns(store, columns, goals, item.goal_indices, cache);

  std::vector<term::TermRef> igoals;
  igoals.reserve(item.goal_indices.size());
  for (const std::size_t gi : item.goal_indices) igoals.push_back(goals[gi]);
  item.assume_ground = statically_all_ground(ip, store, igoals, static_analysis);

  // Import goals and answer variables through one vmap so they share
  // variables inside the item's query store.
  search::Query& q = item.query;
  term::VarMap vmap;
  term::TermRef inner;
  if (!item.vars.empty()) {
    std::vector<term::TermRef> args;
    args.reserve(item.vars.size());
    for (const auto& [name, v] : item.vars)
      args.push_back(q.store.import(store, v, vmap));
    inner = q.store.make_struct(answer_functor(), args);
  } else {
    inner = q.store.make_atom(answer_functor());
  }
  const term::TermRef idt = q.store.make_int(static_cast<std::int64_t>(id));
  std::array<term::TermRef, 2> wrap{idt, inner};
  q.answer = q.store.make_struct(fork_functor(), wrap);
  for (const term::TermRef g : igoals)
    q.goals.push_back(q.store.import(store, g, vmap));
  return item;
}

}  // namespace

ForkPlan plan_fork(engine::Interpreter& ip, const term::Store& store,
                   const std::vector<std::pair<Symbol, term::TermRef>>& query_vars,
                   const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                   ForkMode mode, bool use_semi_join, bool static_analysis) {
  ForkPlan plan;
  plan.columns = query_vars;
  plan.instances = query_vars.empty();
  if (plan.instances) {
    for (std::size_t i = 0; i < goals.size(); ++i) {
      std::string name = "$";
      name += std::to_string(i);
      plan.columns.emplace_back(intern(name), goals[i]);
    }
  }

  // Grouping. Off = the whole conjunction as one group; Static = the
  // compile-time verdict first (a freshly parsed conjunction has only
  // unbound variables, so syntactic disjointness is definitive) with the
  // run-time union-find scan as fallback; Runtime = always the scan.
  if (mode == ForkMode::Off) {
    std::vector<std::size_t> all(goals.size());
    for (std::size_t i = 0; i < goals.size(); ++i) all[i] = i;
    plan.analysis.groups.push_back(std::move(all));
    plan.analysis.shared_vars = 0;
  } else if (mode == ForkMode::Static && static_analysis &&
             analysis::static_conjunction_verdict(store, goals) ==
                 analysis::Indep::Independent) {
    plan.static_independent = true;
    plan.analysis.groups.reserve(goals.size());
    for (std::size_t i = 0; i < goals.size(); ++i)
      plan.analysis.groups.push_back({i});
    plan.analysis.shared_vars = 0;
  } else {
    plan.analysis = analyze(store, goals, &cache);
  }

  // Items. A shared-variable group under the semi-join strategy forks one
  // item per goal (relations combined at the join); builtin goals force
  // the whole group into one item — they constrain sibling bindings and
  // have no solution relation of their own.
  plan.group_items.resize(plan.analysis.groups.size());
  for (std::size_t g = 0; g < plan.analysis.groups.size(); ++g) {
    const auto& group = plan.analysis.groups[g];
    bool has_builtin = false;
    for (const std::size_t gi : group)
      has_builtin |= ip.builtins().is_builtin(db::pred_of(store, goals[gi]));
    if (group.size() > 1 && use_semi_join && !has_builtin) {
      for (const std::size_t gi : group) {
        WorkItem item = make_item(ip, store, plan.columns, goals, cache,
                                  plan.items.size(), g, {gi}, static_analysis);
        item.per_goal = true;
        plan.group_items[g].push_back(item.id);
        plan.items.push_back(std::move(item));
      }
    } else {
      WorkItem item = make_item(ip, store, plan.columns, goals, cache,
                                plan.items.size(), g, group, static_analysis);
      plan.group_items[g].push_back(item.id);
      plan.items.push_back(std::move(item));
    }
  }
  return plan;
}

DecodedAnswer decode_forked_answer(const search::Solution& sol,
                                   bool instances) {
  DecodedAnswer out;
  const term::Store& s = sol.store;
  const term::TermRef a = s.deref(sol.answer);
  // By construction: $andp(Id, $ans(V...)) or $andp(Id, $ans).
  out.item = static_cast<std::size_t>(s.int_value(s.deref(s.arg(a, 0))));
  const term::TermRef inner = s.deref(s.arg(a, 1));
  if (s.is_struct(inner)) {
    const std::uint32_t n = s.arity(inner);
    out.values.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const term::TermRef v = s.deref(s.arg(inner, i));
      if (!term::is_ground(s, v)) out.ground = false;
      out.values.push_back(column_text(s, v, instances));
    }
  }
  return out;
}

}  // namespace blog::andp
