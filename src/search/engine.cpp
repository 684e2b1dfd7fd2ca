#include "blog/search/engine.hpp"

#include <algorithm>

#include "blog/search/runner.hpp"
#include "blog/term/writer.hpp"

namespace blog::search {

SearchEngine::SearchEngine(const db::Program& program, db::WeightStore& weights,
                           BuiltinEvaluator* builtins)
    : program_(program), weights_(weights), builtins_(builtins) {}

namespace {

/// Append a binding's value to text that ends in its `=`: quoted, at the
/// right-argument priority of `=` (xfx 700), so the binding reads back,
/// and after a space where it would glue onto the `=` (`X= -1`).
void write_binding_value(std::string& out, const term::Store& s,
                         term::TermRef value) {
  term::write_term(out, s, value, {.quoted = true}, 699);
}

/// True when the caller's flag or the job's stop flag is set.
bool cancelled(const SearchOptions& opts, const std::atomic<bool>* stop) {
  return (opts.cancel != nullptr &&
          opts.cancel->load(std::memory_order_relaxed)) ||
         (stop != nullptr && stop->load(std::memory_order_relaxed));
}

}  // namespace

std::string solution_text(const term::Store& s, term::TermRef answer) {
  if (answer == term::kNullTerm) return "true";
  static const Symbol eq = intern("=");
  // engine::parse_query builds `Name1=V1,Name2=V2,...`, or uses the query
  // itself when it names no variable.
  const auto is_pair = [&](term::TermRef t, Symbol f) {
    return s.is_struct(t) && s.functor(t) == f && s.arity(t) == 2;
  };
  std::string out;
  for (term::TermRef t = s.deref(answer);; t = s.deref(s.arg(t, 1))) {
    const bool more = is_pair(t, term::comma_symbol());
    const term::TermRef item = more ? s.deref(s.arg(t, 0)) : t;
    if (is_pair(item, eq) && s.is_atom(s.deref(s.arg(item, 0)))) {
      out += symbol_name(s.atom_name(s.deref(s.arg(item, 0))));
      out += '=';
      write_binding_value(out, s, s.arg(item, 1));
    } else {
      term::write_term(out, s, item, {.quoted = true}, 999);
    }
    if (!more) return out;
    out += ',';
  }
}

std::string binding_value_text(const term::Store& s, term::TermRef value) {
  std::string out = "=";
  write_binding_value(out, s, value);
  out.erase(0, 1);
  return out;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::Exhausted: return "exhausted";
    case Outcome::SolutionLimit: return "solution-limit";
    case Outcome::BudgetExceeded: return "budget-exceeded";
    case Outcome::Cancelled: return "cancelled";
  }
  return "?";
}

SearchResult SearchEngine::solve(const Query& q, const SearchOptions& opts,
                                 SearchObserver* observer,
                                 const std::atomic<bool>* stop) {
  if (observer != nullptr) return solve_detached(q, opts, observer, stop);
  return solve_inplace(q, opts, stop);
}

// ---------------------------------------------------------------------------
// In-place path: one Runner, one store. Pending choices stay trail-local;
// only what crosses a frontier (or is an answer) gets deep-copied.
//
//  - DepthFirst     the whole search runs on the pending-choice stack;
//                   nothing is ever detached, reproducing Prolog order.
//  - BreadthFirst   every child is detached into the FIFO frontier
//                   (breadth-first is inherently a copying traversal).
//  - BestFirst      a depth-first burst: continue in place with the best
//                   child while it is no worse than the frontier minimum,
//                   detaching only the other siblings; otherwise detach all
//                   and pop the frontier.
// ---------------------------------------------------------------------------
SearchResult SearchEngine::solve_inplace(const Query& q,
                                         const SearchOptions& opts,
                                         const std::atomic<bool>* stop) {
  Expander expander(program_, weights_, builtins_, opts.expander);
  auto frontier = make_frontier(opts.strategy);
  Runner runner(expander);
  // The commit path resolves deterministic ground-fact goals without a
  // choice point — transparent to depth-first traversal, but it would
  // advance past the frontier comparison best-first interleaving relies
  // on and skip the admitted() check incumbent pruning applies per
  // activation, so it is enabled for plain DFS only.
  runner.set_inplace_commit(opts.strategy == Strategy::DepthFirst &&
                            !opts.prune_with_incumbent);
  runner.load_root(q);

  SearchResult result;
  double incumbent = std::numeric_limits<double>::infinity();

  const auto admitted = [&](double bound) {
    return !opts.prune_with_incumbent || bound <= incumbent + opts.prune_margin;
  };

  // Flight recorder (lane 0, the only worker): in-place expansion bursts
  // are flushed as one event at each frontier interaction, mirroring the
  // parallel engine's per-worker burst events.
  obs::TraceSink* const trace = opts.trace;
  std::uint32_t burst = 0;
  const auto flush_burst = [&] {
    if (burst > 0) {
      obs::trace(trace, 0, obs::EventKind::kExpandBurst, burst);
      burst = 0;
    }
  };

  while (true) {
    // --- acquire a state -------------------------------------------------
    if (!runner.has_state()) {
      if (runner.pending() > 0) {
        if (!admitted(runner.top_bound())) {
          ++result.stats.pruned;
          runner.drop_top();
          continue;
        }
        runner.activate_top();
      } else if (!frontier->empty()) {
        flush_burst();
        DetachedNode n = frontier->pop();
        if (!admitted(n.bound)) {
          ++result.stats.pruned;
          continue;
        }
        runner.load(std::move(n));
        obs::trace(trace, 0, obs::EventKind::kNetworkTake);
      } else {
        break;  // space exhausted
      }
    }
    if (cancelled(opts, stop)) {
      flush_burst();
      result.stats.expand.trail_writes = runner.trail_pushes();
      result.outcome = Outcome::Cancelled;
      return result;
    }
    if (result.stats.nodes_expanded >= opts.limits.max_nodes ||
        deadline_passed(opts.limits.deadline)) {
      flush_burst();
      result.stats.expand.trail_writes = runner.trail_pushes();
      return result;  // outcome stays BudgetExceeded
    }

    // --- expand in place -------------------------------------------------
    ++result.stats.nodes_expanded;
    if (trace != nullptr) ++burst;
    const Runner::StepResult step = runner.expand(&result.stats.expand);

    switch (step.outcome) {
      case NodeOutcome::Solution: {
        if (opts.update_weights)
          update_on_success(weights_, runner.state().chain.get());
        ++result.stats.solutions;
        obs::trace(trace, 0, obs::EventKind::kSolution,
                   static_cast<std::uint32_t>(result.stats.solutions));
        Solution sol = runner.extract_solution(&result.stats.expand);
        const double sol_bound = sol.bound;
        if (opts.on_solution) opts.on_solution(sol);
        result.solutions.push_back(std::move(sol));
        if (opts.prune_with_incumbent) {
          incumbent = std::min(incumbent, sol_bound);
          const double cutoff = incumbent + opts.prune_margin;
          result.stats.pruned += frontier->prune_above(cutoff);
          result.stats.pruned += runner.prune_pending(cutoff);
        }
        if (result.solutions.size() >= opts.limits.max_solutions) {
          result.outcome = Outcome::SolutionLimit;
          flush_burst();
          result.stats.expand.trail_writes = runner.trail_pushes();
          return result;
        }
        break;
      }
      case NodeOutcome::Expanded: {
        result.stats.children_generated += step.children;
        const std::size_t k = step.children;
        if (step.inplace_continue) {
          // Committed in place (k == 0, state live): nothing to detach,
          // the next iteration keeps expanding the same lineage.
          break;
        }
        if (opts.strategy == Strategy::BreadthFirst) {
          // Detach every child, clause order (stack top = first clause).
          for (std::size_t j = k; j-- > 0;)
            frontier->push(runner.detach_sibling(j, &result.stats.expand));
        } else if (opts.strategy == Strategy::BestFirst) {
          // Find the best new child; clause order wins ties (scan from the
          // top of the stack, which holds the first clause).
          std::size_t best = k - 1;
          for (std::size_t j = k - 1; j-- > 0;) {
            if (runner.pending_at(j).bound <
                runner.pending_at(best).bound)
              best = j;
          }
          const double fmin = frontier->empty()
                                  ? std::numeric_limits<double>::infinity()
                                  : frontier->min_bound();
          const bool burst = runner.pending_at(best).bound <= fmin;
          for (std::size_t j = k; j-- > 0;) {
            if (burst && j == best) continue;
            frontier->push(runner.detach_sibling(j, &result.stats.expand));
          }
          // When bursting, the sole remaining choice is activated by the
          // acquisition step above.
        }
        // DepthFirst: all children stay pending; the next iteration
        // activates the top (first clause) in place.
        result.stats.max_frontier = std::max(
            result.stats.max_frontier, frontier->size() + runner.pending());
        break;
      }
      case NodeOutcome::Failure: {
        ++result.stats.failures;
        if (opts.update_weights)
          update_on_failure(weights_, runner.state().chain.get());
        break;
      }
      case NodeOutcome::DepthLimit:
        ++result.stats.depth_cutoffs;
        break;
    }
  }
  flush_burst();
  result.stats.expand.trail_writes = runner.trail_pushes();
  result.exhausted = true;
  result.outcome = Outcome::Exhausted;
  return result;
}

// ---------------------------------------------------------------------------
// Legacy materializing path (observer-instrumented runs): every node is a
// full DetachedNode so hooks can inspect stores, goals and children.
// ---------------------------------------------------------------------------
SearchResult SearchEngine::solve_detached(const Query& q,
                                          const SearchOptions& opts,
                                          SearchObserver* observer,
                                          const std::atomic<bool>* stop) {
  Expander expander(program_, weights_, builtins_, opts.expander);
  auto frontier = make_frontier(opts.strategy);
  frontier->push(expander.make_root(q));

  SearchResult result;
  double incumbent = std::numeric_limits<double>::infinity();

  ExpandOutput out;
  while (!frontier->empty()) {
    if (cancelled(opts, stop)) {
      result.outcome = Outcome::Cancelled;
      return result;
    }
    if (result.stats.nodes_expanded >= opts.limits.max_nodes ||
        deadline_passed(opts.limits.deadline))
      return result;  // outcome stays BudgetExceeded
    DetachedNode n = frontier->pop();
    if (observer && observer->on_pop) observer->on_pop(n);

    if (opts.prune_with_incumbent && n.bound > incumbent + opts.prune_margin) {
      ++result.stats.pruned;
      if (observer && observer->on_failure) observer->on_failure(n);
      continue;
    }

    ++result.stats.nodes_expanded;
    expander.expand(std::move(n), out, &result.stats.expand);

    switch (out.outcome) {
      case NodeOutcome::Solution: {
        DetachedNode& leaf = out.final_node;
        if (observer && observer->on_solution) observer->on_solution(leaf);
        if (opts.update_weights) update_on_success(weights_, leaf.chain.get());
        ++result.stats.solutions;
        Solution sol;
        sol.text = solution_text(leaf.store, leaf.answer);
        sol.bound = leaf.bound;
        sol.depth = leaf.depth;
        sol.answer = leaf.answer;
        sol.store = std::move(leaf.store);
        const double sol_bound = sol.bound;
        if (opts.on_solution) opts.on_solution(sol);
        result.solutions.push_back(std::move(sol));
        if (opts.prune_with_incumbent) {
          incumbent = std::min(incumbent, sol_bound);
          result.stats.pruned +=
              frontier->prune_above(incumbent + opts.prune_margin);
        }
        if (result.solutions.size() >= opts.limits.max_solutions) {
          result.outcome = Outcome::SolutionLimit;
          return result;
        }
        break;
      }
      case NodeOutcome::Expanded: {
        result.stats.children_generated += out.children.size();
        if (observer && observer->on_expand)
          observer->on_expand(out.final_node, out.children);
        // Depth-first wants Prolog order: children are generated
        // first-clause first; a LIFO frontier needs them pushed in reverse.
        if (opts.strategy == Strategy::DepthFirst) {
          for (auto it = out.children.rbegin(); it != out.children.rend(); ++it)
            frontier->push(std::move(*it));
        } else {
          for (auto& c : out.children) frontier->push(std::move(c));
        }
        result.stats.max_frontier =
            std::max(result.stats.max_frontier, frontier->size());
        break;
      }
      case NodeOutcome::Failure: {
        ++result.stats.failures;
        if (observer && observer->on_failure) observer->on_failure(out.final_node);
        if (opts.update_weights)
          update_on_failure(weights_, out.final_node.chain.get());
        break;
      }
      case NodeOutcome::DepthLimit:
        ++result.stats.depth_cutoffs;
        break;
    }
  }
  result.exhausted = true;
  result.outcome = Outcome::Exhausted;
  return result;
}

}  // namespace blog::search
