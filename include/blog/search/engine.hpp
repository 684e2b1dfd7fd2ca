/// \file
/// \brief Sequential OR-tree search driver: one frontier, one worker.
/// Implements depth-first (Prolog), breadth-first, and B-LOG best-first
/// with branch-and-bound pruning and §5 weight adaptation.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <string>

#include "blog/obs/trace.hpp"
#include "blog/search/frontier.hpp"
#include "blog/search/limits.hpp"
#include "blog/search/node.hpp"
#include "blog/search/update.hpp"

namespace blog::search {

/// Why a search returned. Distinguishes a complete answer set from a
/// truncated one so serving layers can tell clients (and caches) the
/// difference instead of silently handing back a partial result.
enum class Outcome : std::uint8_t {
  Exhausted,       ///< frontier emptied: the OR-tree was fully explored
  SolutionLimit,   ///< stopped after max_solutions answers
  BudgetExceeded,  ///< node budget or wall-clock deadline hit
  Cancelled,       ///< caller cancelled the search (executor/job cancel)
};

/// Stable display name of an outcome.
const char* outcome_name(Outcome o);

/// Configuration of one sequential solve.
struct SearchOptions {
  Strategy strategy = Strategy::BestFirst;  ///< open-list policy
  /// Node/solution/deadline cutoffs (shared with the parallel layers).
  ExecutionLimits limits;
  bool update_weights = true;  ///< apply §5 updates as chains resolve
  /// Branch & bound: once an incumbent solution is known, prune frontier
  /// nodes whose bound exceeds incumbent + margin. All successful chains
  /// share the same bound in the theoretical model, so margin 0 keeps
  /// completeness once weights have converged; a fresh database needs a
  /// generous margin (or pruning off) to stay complete.
  bool prune_with_incumbent = false;
  double prune_margin = 0.0;  ///< see prune_with_incumbent
  ExpanderOptions expander;   ///< resolution-step options
  /// Cooperative cancellation: when non-null and set, the solve stops at
  /// the next expansion boundary with Outcome::Cancelled (answers found so
  /// far are returned). The flag must outlive the solve.
  const std::atomic<bool>* cancel = nullptr;
  /// Streaming hook: invoked on the solving thread once per recorded
  /// answer, in discovery order, before the solve returns. The Solution
  /// reference is only valid during the call (render with solution_text to
  /// keep it). Null (default) is free.
  std::function<void(const Solution&)> on_solution;
  /// Flight recorder (obs/trace.hpp). When non-null the solve records
  /// burst/frontier/solution events on lane 0; null (default) is free.
  obs::TraceSink* trace = nullptr;
};

/// Counters of one sequential solve.
struct SearchStats {
  std::size_t nodes_expanded = 0;      ///< expansions performed
  std::size_t children_generated = 0;  ///< children pushed
  std::size_t solutions = 0;           ///< answers found
  std::size_t failures = 0;            ///< failed chains
  std::size_t depth_cutoffs = 0;       ///< DepthLimit outcomes
  std::size_t pruned = 0;              ///< nodes pruned by branch & bound
  std::size_t max_frontier = 0;        ///< peak open-list size
  ExpandStats expand;                  ///< resolution-step work counters
};

/// Everything a sequential solve returns.
struct SearchResult {
  std::vector<Solution> solutions;  ///< recorded answers
  SearchStats stats;                ///< work counters
  Outcome outcome = Outcome::BudgetExceeded;  ///< set on every return path
  bool exhausted = false;  ///< frontier emptied (space fully explored)
};

/// Observer hooks for tree recording (theory module, traces, machine sim).
struct SearchObserver {
  std::function<void(const Node&)> on_pop;       ///< node popped
  std::function<void(const Node&, const std::vector<Node>&)> on_expand;
      ///< node expanded into children
  std::function<void(const Node&)> on_solution;  ///< answer recorded
  std::function<void(const Node&)> on_failure;   ///< chain failed
};

/// The sequential search driver.
class SearchEngine {
public:
  /// Bind to a program/weight store/builtins; all must outlive the engine.
  SearchEngine(const db::Program& program, db::WeightStore& weights,
               BuiltinEvaluator* builtins);

  /// Solve `q`. The default path runs chains in place in one worker-local
  /// store (trail rollback between alternatives, depth-first bursts
  /// between frontier pops) and deep-copies state only for frontier spills
  /// and solutions. When an observer is attached, the engine falls back to
  /// the legacy materializing path so every hook still receives full
  /// nodes. `stop`, when non-null, is checked with `opts.cancel` at every
  /// expansion boundary (an Executor job passes its ticket's flag, so it
  /// stops on either its caller's flag or its ticket's).
  SearchResult solve(const Query& q, const SearchOptions& opts,
                     SearchObserver* observer = nullptr,
                     const std::atomic<bool>* stop = nullptr);

  /// The weight store §5 updates mutate.
  [[nodiscard]] db::WeightStore& weights() { return weights_; }

private:
  SearchResult solve_inplace(const Query& q, const SearchOptions& opts,
                             const std::atomic<bool>* stop);
  SearchResult solve_detached(const Query& q, const SearchOptions& opts,
                              SearchObserver* observer,
                              const std::atomic<bool>* stop);

  const db::Program& program_;
  db::WeightStore& weights_;
  BuiltinEvaluator* builtins_;
};

/// Render a solution's answer: each `Name=Value` binding of the template
/// as the name, `=` and the value written quoted, so the text reads back
/// (a template that is not a binding list is written quoted whole).
std::string solution_text(const term::Store& s, term::TermRef answer);

/// The text solution_text writes after a binding's `=` for `value`.
std::string binding_value_text(const term::Store& s, term::TermRef value);

}  // namespace blog::search
