// AND-parallel execution of conjunctive queries (§7), unified with the
// OR-parallel scheduler (§6).
//
// The conjunction is partitioned into independence groups (plan.hpp) and —
// by default — every group is forked as stealable work items into ONE
// work-stealing scheduler partition: OR-alternatives inside a group and
// sibling AND-groups are stolen by the same idle workers under the same
// victim policy, bounds, and termination detector. A parallel::JoinNode
// collects each item's answer rows; when the partition's termination
// detector fires, the join resolves exactly once and combines the answer
// sets (cross product across groups — no shared variables, so every
// combination is consistent; semi-join inside shared-variable groups).
//
// The pre-unification path (`unified = false`) solves each group with its
// own sequential engine run and is kept for regression comparison.
//
// Cost model: sequential work = Σ group work; AND-parallel elapsed work =
// max group work (+ the join/combination cost), which is the speedup the
// paper predicts for "highly deterministic programs".
#pragma once

#include "blog/andp/join.hpp"
#include "blog/andp/plan.hpp"
#include "blog/parallel/executor.hpp"

namespace blog::andp {

struct AndParallelOptions {
  /// Per-group engine options. `limits` governs the whole conjunction
  /// (node budget and deadline are global across groups; max_solutions
  /// bounds the *joined* answer set — reported as Outcome::SolutionLimit,
  /// never a silent truncation). `cancel`/`trace` apply to both paths.
  search::SearchOptions search;
  bool use_semi_join = true;  // join strategy for shared-variable groups
  /// Fork decision: compile-time verdict first (default), always the
  /// run-time scan, or no forking at all.
  ForkMode fork = ForkMode::Static;
  /// Run the forked items on the unified work-stealing scheduler
  /// (default). false = the pre-unification per-group sequential solves.
  bool unified = true;
  unsigned workers = 4;  ///< unified path: the job's slot request
  /// The unified path runs as one job (with forked child roots) on this
  /// persistent pool; null = on a pool of `workers` threads started for
  /// the call.
  parallel::Executor* executor = nullptr;
};

struct GroupReport {
  std::vector<std::size_t> goal_indices;
  std::size_t nodes_expanded = 0;
  std::size_t solutions = 0;
};

struct AndParallelResult {
  /// Rendered solutions (sorted), as the sequential engine writes them:
  /// "X=a,Y=b", or the goals' instances when the query names no variable.
  std::vector<std::string> solutions;
  std::vector<GroupReport> groups;
  std::size_t shared_vars = 0;
  /// The compile-time verdict (analysis::static_conjunction_verdict)
  /// proved the conjunction independent, so the run-time variable scan
  /// was skipped entirely.
  bool static_independent = false;
  /// Why execution ended. Anything but Exhausted means the answer set is
  /// NOT complete — the joined set is then empty rather than silently
  /// partial (SolutionLimit excepted: the set is the first max_solutions
  /// of the complete joined set).
  search::Outcome outcome = search::Outcome::Exhausted;
  bool unified = false;          ///< ran on the unified scheduler
  std::size_t forked_items = 0;  ///< work items pushed (0 on legacy path)
  std::size_t join_resolves = 0;  ///< JoinNode combines run (0 or 1)
  double join_micros = 0.0;       ///< time inside the join combine
  std::size_t sequential_nodes = 0;   // Σ group nodes (one-processor cost)
  std::size_t critical_path_nodes = 0;  // max group nodes (parallel cost)
  JoinStats join;

  [[nodiscard]] double and_speedup() const {
    return critical_path_nodes > 0
               ? static_cast<double>(sequential_nodes) /
                     static_cast<double>(critical_path_nodes)
               : 1.0;
  }
};

/// Execute `query_text` (a conjunction) with AND-parallelism.
/// Requirements: each group's solutions must ground its variables (true for
/// database-style programs); otherwise results fall back to the sequential
/// engine for that group combination.
AndParallelResult solve_and_parallel(engine::Interpreter& ip,
                                     std::string_view query_text,
                                     const AndParallelOptions& opts = {});

/// Solve a single goal as a Relation over its named variables (helper for
/// the join strategy; also used by benches).
Relation goal_relation(engine::Interpreter& ip, const term::Store& store,
                       term::TermRef goal,
                       const std::vector<std::pair<Symbol, term::TermRef>>& vars,
                       const search::SearchOptions& opts,
                       std::size_t* nodes = nullptr);

}  // namespace blog::andp
