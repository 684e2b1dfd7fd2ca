// AND-parallel execution of conjunctive queries (§7) on the OR-parallel
// scheduler (§6).
//
// The conjunction is partitioned into independence groups (plan.hpp), and
// every group is forked as stealable work items into ONE work-stealing
// scheduler partition: OR-alternatives inside a group and sibling
// AND-groups are stolen by the same idle workers under the same victim
// policy, bounds, and termination detector. The partition runs as one
// Executor job; each answer lands in its item's relation. After the job
// ends, and only when it ran to exhaustion, the relations are combined
// once on the caller's thread (cross product across groups — no shared
// variables, so every combination is consistent; semi-join inside
// shared-variable groups).
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
  /// Per-item engine options. `limits` governs the whole conjunction
  /// (node budget and deadline are global across groups; max_solutions
  /// bounds the *joined* answer set — reported as Outcome::SolutionLimit,
  /// never a silent truncation). `cancel` and `trace` reach the job.
  search::SearchOptions search;
  bool use_semi_join = true;  // join strategy for shared-variable groups
  /// Fork decision: compile-time verdict first (default), always the
  /// run-time scan, or no forking at all.
  ForkMode fork = ForkMode::Static;
  unsigned workers = 4;  ///< the job's slot request
  /// Run the conjunction as one job (with forked child roots) on this
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
  std::size_t forked_items = 0;   ///< work items forked into the job
  std::size_t join_resolves = 0;  ///< 1 when the combine ran, else 0
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
/// database-style programs); otherwise that group is re-solved whole by the
/// sequential engine and combined as one relation.
AndParallelResult solve_and_parallel(engine::Interpreter& ip,
                                     std::string_view query_text,
                                     const AndParallelOptions& opts = {});

}  // namespace blog::andp
