#include "blog/andp/exec.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "blog/analysis/domain.hpp"
#include "blog/obs/trace.hpp"
#include "blog/parallel/join.hpp"
#include "blog/search/engine.hpp"
#include "blog/term/reader.hpp"

namespace blog::andp {
namespace {

Symbol answer_functor() {
  static const Symbol s = intern("$ans");
  return s;
}

/// Solve `goals` (in `store`) for the columns in `vars` (goal instances
/// when `instances`), returning a relation with one row per solution plus
/// the solve's outcome.
struct RelationResult {
  Relation rel;
  std::size_t nodes = 0;
  bool all_ground = true;
  search::Outcome outcome = search::Outcome::Exhausted;
};

RelationResult solve_to_relation(
    engine::Interpreter& ip, const term::Store& store,
    const std::vector<term::TermRef>& goals,
    const std::vector<std::pair<Symbol, term::TermRef>>& vars,
    const search::SearchOptions& opts, bool instances) {
  const bool assume_ground = statically_all_ground(
      ip, store, goals, opts.expander.static_analysis);
  RelationResult out;
  for (const auto& [name, v] : vars) out.rel.schema.push_back(name);

  search::Query q;
  term::VarMap vmap;
  // Answer template $ans(V1,...,Vk) shares variables with the goals.
  if (!vars.empty()) {
    std::vector<term::TermRef> args;
    for (const auto& [name, v] : vars) args.push_back(q.store.import(store, v, vmap));
    q.answer = q.store.make_struct(answer_functor(), args);
  }
  for (const term::TermRef g : goals) q.goals.push_back(q.store.import(store, g, vmap));

  const auto res = ip.solve(q, opts);
  out.nodes = res.stats.nodes_expanded;
  out.outcome = res.outcome;
  for (const auto& sol : res.solutions) {
    std::vector<std::string> row;
    if (!vars.empty()) {
      const term::TermRef a = sol.store.deref(sol.answer);
      for (std::uint32_t i = 0; i < sol.store.arity(a); ++i) {
        const term::TermRef v = sol.store.deref(sol.store.arg(a, i));
        if (!assume_ground && !term::is_ground(sol.store, v))
          out.all_ground = false;
        row.push_back(column_text(sol.store, v, instances));
      }
    }
    out.rel.rows.push_back(std::move(row));
  }
  return out;
}

/// A work item's collected answers as a Relation over its schema.
Relation item_relation(const WorkItem& item,
                       const parallel::JoinNode::ItemAnswers& ans) {
  Relation r;
  r.schema.reserve(item.vars.size());
  for (const auto& [name, v] : item.vars) r.schema.push_back(name);
  r.rows = ans.rows;
  return r;
}

/// Per goal of a conjunction: the '(' written before it and the ')' after.
using GoalParens = std::vector<std::pair<std::size_t, std::size_t>>;

/// The parentheses search::solution_text writes around each goal of the
/// conjunction `t` (left to right, as flatten_conjunction lists them): a
/// conjunction in the left argument of `,` is written at priority 999 and
/// so parenthesized; one in the right argument (xfy) is not.
void conjunction_parens(const term::Store& s, term::TermRef t, bool left,
                        GoalParens& out) {
  t = s.deref(t);
  if (!s.is_struct(t) || s.functor(t) != term::comma_symbol() ||
      s.arity(t) != 2) {
    out.emplace_back(0, 0);
    return;
  }
  const std::size_t first = out.size();
  conjunction_parens(s, s.arg(t, 0), true, out);
  conjunction_parens(s, s.arg(t, 1), false, out);
  if (left) {
    ++out[first].first;
    ++out.back().second;
  }
}

/// Render `combined` rows as the sequential engine writes the answer
/// template, sorted: "X=a,Y=b" over the named variables in query order,
/// or, when the query names none, the query with each goal replaced by its
/// instance ("(p(1),q(2)),p(3)"); `parens` holds each goal's parentheses.
void render_solutions(const Relation& combined, const ForkPlan& plan,
                      const GoalParens& parens, std::vector<std::string>& out) {
  for (const auto& row : combined.rows) {
    std::string text;
    for (std::size_t i = 0; i < plan.columns.size(); ++i) {
      const auto col = combined.column(plan.columns[i].first);
      if (col < 0) continue;
      if (!text.empty()) text += ",";
      if (plan.instances) text.append(parens[i].first, '(');
      else text += symbol_name(plan.columns[i].first) + "=";
      text += row[static_cast<std::size_t>(col)];
      if (plan.instances) text.append(parens[i].second, ')');
    }
    if (text.empty()) text = "true";
    out.push_back(std::move(text));
  }
  std::sort(out.begin(), out.end());
}

/// Bound the *joined* answer set: max_solutions is applied after the
/// combine (on the sorted set, so the cut is deterministic) and reported
/// as SolutionLimit — never a silent cross-product truncation.
void apply_solution_limit(AndParallelResult& out, std::size_t max_solutions) {
  if (out.outcome != search::Outcome::Exhausted) return;
  if (out.solutions.size() <= max_solutions) return;
  out.solutions.resize(max_solutions);
  out.outcome = search::Outcome::SolutionLimit;
}

/// Pre-unification execution: each group solved by its own sequential
/// engine run (kept for regression comparison). Limits are threaded
/// across groups — the node budget is global, and a group solve that ends
/// on anything but Exhausted propagates its outcome instead of joining a
/// partial relation.
void solve_legacy(engine::Interpreter& ip, const term::Store& store,
                  const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                  const ForkPlan& plan, const GoalParens& parens,
                  const AndParallelOptions& opts, AndParallelResult& out) {
  std::size_t nodes_used = 0;
  const std::size_t max_nodes = opts.search.limits.max_nodes;
  // Per-group engine options: the remaining global node budget, no
  // solution cap (max_solutions bounds the joined set, not a group's
  // relation — capping here would silently truncate cross-products).
  const auto group_opts = [&] {
    search::SearchOptions o = opts.search;
    o.limits.max_solutions = std::numeric_limits<std::size_t>::max();
    o.limits.max_nodes = max_nodes - std::min(nodes_used, max_nodes);
    return o;
  };
  const auto check = [&](const RelationResult& rr) {
    nodes_used += rr.nodes;
    if (rr.outcome == search::Outcome::Exhausted) return true;
    out.outcome = rr.outcome;
    return false;
  };

  Relation combined;
  bool first = true;
  for (std::size_t g = 0; g < plan.analysis.groups.size(); ++g) {
    const auto& group = plan.analysis.groups[g];
    GroupReport grep;
    grep.goal_indices = group;

    std::vector<term::TermRef> ggoals;
    for (const std::size_t gi : group) ggoals.push_back(goals[gi]);
    const auto gvars = slice_columns(store, plan.columns, goals, group, cache);

    Relation grel;
    const auto& item_ids = plan.group_items[g];
    if (plan.items[item_ids.front()].per_goal) {
      // Shared-variable group: per-goal relations combined by semi-join.
      bool join_ok = true;
      std::vector<Relation> rels;
      for (const std::size_t id : item_ids) {
        const WorkItem& item = plan.items[id];
        auto rr = solve_to_relation(ip, store, {goals[item.goal_indices[0]]},
                                    item.vars, group_opts(), plan.instances);
        grep.nodes_expanded += rr.nodes;
        if (!check(rr)) {
          out.solutions.clear();
          return;
        }
        if (!rr.all_ground) {
          join_ok = false;
          break;
        }
        rels.push_back(std::move(rr.rel));
      }
      if (join_ok && !rels.empty()) {
        grel = std::move(rels.front());
        for (std::size_t r = 1; r < rels.size(); ++r)
          grel = semi_join_then_join(grel, rels[r], &out.join);
      } else {
        // Fall back to sequential resolution of the whole group.
        auto rr = solve_to_relation(ip, store, ggoals, gvars, group_opts(),
                                    plan.instances);
        grep.nodes_expanded += rr.nodes;
        if (!check(rr)) {
          out.solutions.clear();
          return;
        }
        grel = std::move(rr.rel);
      }
    } else {
      auto rr = solve_to_relation(ip, store, ggoals, gvars, group_opts(),
                                  plan.instances);
      grep.nodes_expanded = rr.nodes;
      if (!check(rr)) {
        out.solutions.clear();
        return;
      }
      grel = std::move(rr.rel);
    }

    grep.solutions = grel.size();
    out.sequential_nodes += grep.nodes_expanded;
    out.critical_path_nodes = std::max(out.critical_path_nodes, grep.nodes_expanded);
    out.groups.push_back(std::move(grep));

    // Combine with previous groups: disjoint schemas ⇒ cross product.
    if (first) {
      combined = std::move(grel);
      first = false;
    } else {
      combined = hash_join(combined, grel, &out.join);
    }
    if (combined.rows.empty() && !combined.schema.empty()) break;
  }

  render_solutions(combined, plan, parens, out.solutions);
}

/// Unified execution: all work items forked into one scheduler partition
/// as one Executor job (on `opts.executor`, or on a pool started for the
/// call), answers deposited into a JoinNode, combined exactly once after
/// the partition's termination detector fires.
void solve_unified(engine::Interpreter& ip, const term::Store& store,
                   const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                   ForkPlan& plan, const GoalParens& parens,
                   const AndParallelOptions& opts, AndParallelResult& out) {
  const std::size_t n_items = plan.items.size();
  out.unified = true;
  out.forked_items = n_items;

  parallel::JoinNode jn(n_items);
  // Per-item expansion counters: fork tags == item ids, stamped on the
  // roots and inherited through every expansion (see DetachedNode::fork_tag).
  std::vector<std::atomic<std::uint64_t>> fork_nodes(n_items);

  // Answer sink: solutions self-identify via their $andp(Id, ...) wrapper;
  // decode and deposit. Runs under the job's solution lock.
  const auto sink = [&](const search::Solution& sol) {
    DecodedAnswer dec = decode_forked_answer(sol, plan.instances);
    if (!dec.ground && !plan.items[dec.item].assume_ground &&
        plan.items[dec.item].per_goal)
      jn.mark_nonground(dec.item);
    jn.deposit(dec.item, std::move(dec.values));
  };

  obs::TraceSink* trace = opts.search.trace;
  for (const WorkItem& item : plan.items)
    obs::trace(trace, obs::client_lane(), obs::EventKind::kAndFork,
               static_cast<std::uint32_t>(item.id));

  // One pool job whose partition holds every forked root: items[0] is the
  // job's query (fork_tag 0), the rest ride as child work items.
  parallel::JobRequest req;
  req.program = &ip.program();
  req.weights = &ip.weights();
  req.builtins = &ip.builtins();
  req.slots = std::max(1u, opts.workers);
  req.opts.limits = opts.search.limits;
  // max_solutions bounds the *joined* set; the items run unbounded and
  // the cap is applied after the combine (apply_solution_limit).
  req.opts.limits.max_solutions = std::numeric_limits<std::size_t>::max();
  req.opts.update_weights = opts.search.update_weights;
  req.opts.expander = opts.search.expander;
  req.opts.cancel = opts.search.cancel;
  req.opts.trace = trace;
  req.query = std::move(plan.items[0].query);
  req.forks.reserve(n_items - 1);
  for (std::size_t i = 1; i < n_items; ++i)
    req.forks.push_back(std::move(plan.items[i].query));
  req.fork_nodes = fork_nodes.data();
  req.fork_tag_count = static_cast<std::uint32_t>(n_items);
  req.on_answer = sink;

  std::optional<parallel::Executor> own_pool;
  parallel::Executor* pool = opts.executor;
  if (pool == nullptr)
    pool = &own_pool.emplace(parallel::ExecutorOptions{.workers = req.slots});
  const parallel::JobTicket ticket = pool->submit(std::move(req));
  if (!ticket.valid()) {
    // Pool refused (queue full): honest refusal, no partial answers.
    out.outcome = search::Outcome::Cancelled;
    jn.mark_incomplete();
  } else {
    out.outcome = ticket.wait().outcome;
  }

  // Per-group node attribution from the fork-tag counters.
  std::vector<std::size_t> group_nodes(plan.analysis.groups.size(), 0);
  for (const WorkItem& item : plan.items)
    group_nodes[item.group] +=
        fork_nodes[item.id].load(std::memory_order_relaxed);

  if (out.outcome != search::Outcome::Exhausted) {
    // Some item may still have unexplored alternatives (budget, deadline,
    // cancel): poison the join so partial answers never leak.
    jn.mark_incomplete();
  }

  const auto t0 = std::chrono::steady_clock::now();
  Relation combined;
  const bool resolved = jn.resolve([&](auto answers) {
    bool first = true;
    for (std::size_t g = 0; g < plan.analysis.groups.size(); ++g) {
      const auto& group = plan.analysis.groups[g];
      GroupReport grep;
      grep.goal_indices = group;
      grep.nodes_expanded = group_nodes[g];

      Relation grel;
      const auto& item_ids = plan.group_items[g];
      if (plan.items[item_ids.front()].per_goal) {
        bool join_ok = true;
        for (const std::size_t id : item_ids) join_ok &= answers[id].ground;
        if (join_ok) {
          grel = item_relation(plan.items[item_ids[0]], answers[item_ids[0]]);
          for (std::size_t r = 1; r < item_ids.size(); ++r)
            grel = semi_join_then_join(
                grel, item_relation(plan.items[item_ids[r]], answers[item_ids[r]]),
                &out.join);
        } else {
          // A goal's relation did not ground its variables: the per-goal
          // split is unsound for this group — re-solve it whole,
          // sequentially (same fallback as the legacy path).
          std::vector<term::TermRef> ggoals;
          for (const std::size_t gi : group) ggoals.push_back(goals[gi]);
          search::SearchOptions o = opts.search;
          o.limits.max_solutions = std::numeric_limits<std::size_t>::max();
          auto rr = solve_to_relation(
              ip, store, ggoals,
              slice_columns(store, plan.columns, goals, group, cache), o,
              plan.instances);
          grep.nodes_expanded += rr.nodes;
          group_nodes[g] += rr.nodes;
          grel = std::move(rr.rel);
        }
      } else {
        grel = item_relation(plan.items[item_ids[0]], answers[item_ids[0]]);
      }

      grep.solutions = grel.size();
      out.groups.push_back(std::move(grep));

      if (first) {
        combined = std::move(grel);
        first = false;
      } else {
        combined = hash_join(combined, grel, &out.join);
      }
    }
  });
  out.join_micros =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  out.join_resolves = jn.resolves();

  for (const std::size_t n : group_nodes) {
    out.sequential_nodes += n;
    out.critical_path_nodes = std::max(out.critical_path_nodes, n);
  }

  if (!resolved) {
    // Incomplete join: report the honest outcome with an empty set and
    // the per-group progress made so far.
    for (std::size_t g = 0; g < plan.analysis.groups.size(); ++g) {
      GroupReport grep;
      grep.goal_indices = plan.analysis.groups[g];
      grep.nodes_expanded = group_nodes[g];
      out.groups.push_back(std::move(grep));
    }
    return;
  }

  obs::trace(trace, obs::client_lane(), obs::EventKind::kAndJoin,
             static_cast<std::uint32_t>(combined.rows.size()));
  render_solutions(combined, plan, parens, out.solutions);
}

}  // namespace

Relation goal_relation(engine::Interpreter& ip, const term::Store& store,
                       term::TermRef goal,
                       const std::vector<std::pair<Symbol, term::TermRef>>& vars,
                       const search::SearchOptions& opts, std::size_t* nodes) {
  auto rr = solve_to_relation(ip, store, {goal}, vars, opts, false);
  if (nodes) *nodes = rr.nodes;
  return std::move(rr.rel);
}

AndParallelResult solve_and_parallel(engine::Interpreter& ip,
                                     std::string_view query_text,
                                     const AndParallelOptions& opts) {
  AndParallelResult out;

  term::Store store;
  const term::ReadTerm rt = term::parse_term(query_text, store);
  std::vector<term::TermRef> goals;
  flatten_conjunction(store, rt.term, goals);

  // One memoized variable-scan per goal serves the independence analysis
  // and every variable-slicing pass below (the store's bindings never
  // change for the lifetime of this split — solving happens in per-query
  // stores).
  GoalVarCache var_cache(store);

  ForkPlan plan =
      plan_fork(ip, store, rt.variables, goals, var_cache, opts.fork,
                opts.use_semi_join, opts.search.expander.static_analysis);
  out.shared_vars = plan.analysis.shared_vars;
  out.static_independent = plan.static_independent;
  GoalParens parens;
  conjunction_parens(store, rt.term, false, parens);

  if (opts.unified)
    solve_unified(ip, store, goals, var_cache, plan, parens, opts, out);
  else
    solve_legacy(ip, store, goals, var_cache, plan, parens, opts, out);

  apply_solution_limit(out, opts.search.limits.max_solutions);
  return out;
}

}  // namespace blog::andp
