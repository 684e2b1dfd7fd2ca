#include "blog/andp/exec.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "blog/obs/trace.hpp"
#include "blog/search/engine.hpp"
#include "blog/term/reader.hpp"

namespace blog::andp {
namespace {

Symbol answer_functor() {
  static const Symbol s = intern("$ans");
  return s;
}

/// Solve `goals` (in `store`) for the columns in `vars` (goal instances
/// when `instances`) with the sequential engine: one relation row per
/// solution, plus the solve's node count and outcome.
struct RelationResult {
  Relation rel;
  std::size_t nodes = 0;
  search::Outcome outcome = search::Outcome::Exhausted;
};

RelationResult solve_to_relation(
    engine::Interpreter& ip, const term::Store& store,
    const std::vector<term::TermRef>& goals,
    const std::vector<std::pair<Symbol, term::TermRef>>& vars,
    const search::SearchOptions& opts, bool instances) {
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
      for (std::uint32_t i = 0; i < sol.store.arity(a); ++i)
        row.push_back(column_text(sol.store, sol.store.deref(sol.store.arg(a, i)),
                                  instances));
    }
    out.rel.rows.push_back(std::move(row));
  }
  return out;
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

/// One relation per group: its items' relations semi-joined (a
/// shared-variable group) or its one item's relation, then the groups'
/// relations cross-joined into `combined`. A group whose per-goal answers
/// were not all ground is re-solved whole by the sequential engine, within
/// what is left of the node budget. False when such a re-solve did not run
/// to exhaustion; out.outcome then says why.
bool combine_groups(engine::Interpreter& ip, const term::Store& store,
                    const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                    const ForkPlan& plan, const AndParallelOptions& opts,
                    std::vector<Relation>& rels, const std::vector<char>& ground,
                    AndParallelResult& out, Relation& combined) {
  for (std::size_t g = 0; g < plan.analysis.groups.size(); ++g) {
    GroupReport& grep = out.groups[g];
    const auto& item_ids = plan.group_items[g];
    Relation grel;
    const bool per_goal = plan.items[item_ids.front()].per_goal;
    if (!per_goal || std::all_of(item_ids.begin(), item_ids.end(),
                                 [&](std::size_t id) { return ground[id] != 0; })) {
      grel = std::move(rels[item_ids.front()]);
      for (std::size_t r = 1; r < item_ids.size(); ++r)
        grel = semi_join_then_join(grel, rels[item_ids[r]], &out.join);
    } else {
      // A goal's relation did not ground its variables: the per-goal split
      // is unsound for this group.
      std::vector<term::TermRef> ggoals;
      for (const std::size_t gi : grep.goal_indices) ggoals.push_back(goals[gi]);
      std::size_t used = 0;
      for (const GroupReport& r : out.groups) used += r.nodes_expanded;
      search::SearchOptions o = opts.search;
      o.limits.max_solutions = std::numeric_limits<std::size_t>::max();
      o.limits.max_nodes -= std::min(used, o.limits.max_nodes);
      auto rr = solve_to_relation(
          ip, store, ggoals,
          slice_columns(store, plan.columns, goals, grep.goal_indices, cache),
          o, plan.instances);
      grep.nodes_expanded += rr.nodes;
      if (rr.outcome != search::Outcome::Exhausted) {
        out.outcome = rr.outcome;
        return false;
      }
      grel = std::move(rr.rel);
    }
    grep.solutions = grel.size();
    combined = g == 0 ? std::move(grel) : hash_join(combined, grel, &out.join);
  }
  return true;
}

}  // namespace

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
  const std::size_t n_items = plan.items.size();
  out.forked_items = n_items;

  // Per item: its answers as a relation over the item's schema, and
  // whether every answer was ground (a per-goal relation must be).
  std::vector<Relation> rels(n_items);
  std::vector<char> ground(n_items, 1);
  for (const WorkItem& item : plan.items)
    for (const auto& [name, v] : item.vars) rels[item.id].schema.push_back(name);
  // Per-item expansion counters: fork tags == item ids, stamped on the
  // roots and inherited through every expansion (see DetachedNode::fork_tag).
  std::vector<std::atomic<std::uint64_t>> fork_nodes(n_items);

  // Answer sink: solutions self-identify via their $andp(Id, ...) wrapper.
  // It needs no lock: the Executor never overlaps one job's on_answer
  // calls, and they all happen before wait() returns.
  const auto sink = [&](const search::Solution& sol) {
    DecodedAnswer dec = decode_forked_answer(sol, plan.instances);
    if (!dec.ground && !plan.items[dec.item].assume_ground) ground[dec.item] = 0;
    rels[dec.item].rows.push_back(std::move(dec.values));
  };

  obs::TraceSink* trace = opts.search.trace;
  for (const WorkItem& item : plan.items)
    obs::trace(trace, obs::client_lane(), obs::EventKind::kAndFork,
               static_cast<std::uint32_t>(item.id));

  // One pool job (on `opts.executor`, or on a pool started for the call)
  // whose partition holds every forked root: items[0] is the job's query
  // (fork_tag 0), the rest ride as child work items.
  parallel::JobRequest req;
  req.program = &ip.program();
  req.weights = &ip.weights();
  req.builtins = &ip.builtins();
  req.slots = std::max(1u, opts.workers);
  req.opts.limits = opts.search.limits;
  // max_solutions bounds the *joined* set; the items run unbounded and
  // the cap is applied after the combine.
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
  // A refused submit (queue full) is an honest refusal: no answers.
  out.outcome = ticket.valid() ? ticket.wait().outcome : search::Outcome::Cancelled;

  // Per-group node attribution from the fork-tag counters.
  out.groups.resize(plan.analysis.groups.size());
  for (std::size_t g = 0; g < out.groups.size(); ++g)
    out.groups[g].goal_indices = plan.analysis.groups[g];
  for (const WorkItem& item : plan.items)
    out.groups[item.group].nodes_expanded +=
        fork_nodes[item.id].load(std::memory_order_relaxed);

  // Anything but exhaustion (budget, deadline, cancel, refusal) may have
  // left alternatives unexplored: no combine, so partial answers never
  // leak.
  bool combined_ok = false;
  Relation combined;
  if (out.outcome == search::Outcome::Exhausted) {
    const auto t0 = std::chrono::steady_clock::now();
    combined_ok = combine_groups(ip, store, goals, var_cache, plan, opts, rels,
                                 ground, out, combined);
    out.join_micros = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  }
  for (const GroupReport& grep : out.groups) {
    out.sequential_nodes += grep.nodes_expanded;
    out.critical_path_nodes = std::max(out.critical_path_nodes, grep.nodes_expanded);
  }
  if (!combined_ok) return out;

  out.join_resolves = 1;
  obs::trace(trace, obs::client_lane(), obs::EventKind::kAndJoin,
             static_cast<std::uint32_t>(combined.rows.size()));
  GoalParens parens;
  conjunction_parens(store, rt.term, false, parens);
  render_solutions(combined, plan, parens, out.solutions);
  // Bound the *joined* answer set: max_solutions cuts the sorted set, so
  // the cut is deterministic, and is reported as SolutionLimit — never a
  // silent cross-product truncation.
  if (out.solutions.size() > opts.search.limits.max_solutions) {
    out.solutions.resize(opts.search.limits.max_solutions);
    out.outcome = search::Outcome::SolutionLimit;
  }
  return out;
}

}  // namespace blog::andp
