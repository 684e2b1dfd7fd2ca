/// \file
/// \brief The per-job worker loop: one search job's per-expansion
/// behaviour, run by the Executor's pool workers.
///
/// A *job* is one query's OR-search: a WorkStealingScheduler instance (its
/// private partition of the minimum-seeking network — two jobs' chains can
/// never mix because they live in different schedulers), a JobControls
/// bundle (budgets, stop cause, the shared solution vector, streaming
/// hook), and the job's ParallelOptions.
/// `run_job_worker` runs one worker ("processor") against that job until
/// the job terminates, is stopped, or the worker's acquire drains.
#pragma once

#include <mutex>

#include "blog/parallel/engine.hpp"

namespace blog::parallel {

/// Shared mutable state of one job: cooperative cutoffs, the first-stop
/// cause, and the answer sink. One instance per job, shared by every
/// worker attached to it; lives until the job is finalized.
struct JobControls {
  /// Remaining node budget (signed so concurrent decrements may drive it
  /// below zero harmlessly).
  std::atomic<std::int64_t> node_budget{
      std::numeric_limits<std::int64_t>::max()};
  /// Remaining solution slots (claimed by CAS, never wraps below zero).
  std::atomic<std::uint64_t> solutions_left{
      std::numeric_limits<std::uint64_t>::max()};
  /// First stop cause wins (-1 = none yet; otherwise a search::Outcome).
  std::atomic<int> stop_cause{-1};
  /// Wall-clock cutoff (steady clock); epoch = none.
  std::chrono::steady_clock::time_point deadline{};
  /// The caller's cancel flag (ParallelOptions::cancel; may be null).
  /// Checked once per expansion; JobTicket::cancel stops the scheduler
  /// instead.
  const std::atomic<bool>* cancel = nullptr;
  std::mutex sol_mu;                         ///< guards solutions + hook
  std::vector<search::Solution> solutions;   ///< recorded answers
  /// Streaming hook: called under sol_mu once per recorded answer, in
  /// discovery order, before the answer is appended to `solutions`.
  std::function<void(const search::Solution&)> on_solution;
  /// Optional per-fork-tag expansion counters (AND-parallel work items):
  /// fork_nodes[t] is bumped once per expansion of a node whose lineage
  /// descends from the root tagged `t`. Array of `fork_tag_count` atomics
  /// owned by whoever armed them; null = no attribution.
  std::atomic<std::uint64_t>* fork_nodes = nullptr;
  std::uint32_t fork_tag_count = 0;

  /// Arm the cutoffs from unified limits (+ optional cancel flag).
  void arm(const search::ExecutionLimits& limits,
           const std::atomic<bool>* cancel_flag = nullptr) {
    node_budget.store(
        static_cast<std::int64_t>(std::min<std::size_t>(
            limits.max_nodes, std::numeric_limits<std::int64_t>::max())),
        std::memory_order_relaxed);
    solutions_left.store(
        limits.max_solutions == std::numeric_limits<std::size_t>::max()
            ? std::numeric_limits<std::uint64_t>::max()
            : limits.max_solutions,
        std::memory_order_relaxed);
    deadline = limits.deadline;
    cancel = cancel_flag;
  }

  /// The job's outcome given whether its scheduler still holds work.
  /// `exhausted` = the scheduler terminated on its own (outstanding-work
  /// count hit zero) rather than being stopped.
  [[nodiscard]] search::Outcome outcome(bool exhausted) const {
    const int cause = stop_cause.load(std::memory_order_relaxed);
    return exhausted || cause < 0 ? search::Outcome::Exhausted
                                  : static_cast<search::Outcome>(cause);
  }
};

/// Record `o` as the job's stop cause unless one is already set (first
/// reporter wins; later reporters keep the original).
void report_stop(std::atomic<int>& cause, search::Outcome o);

/// Run one worker against one job until the job terminates or stops.
///
/// `slot` is the worker's index *within the job's scheduler* (0..slots-1);
/// `lane` is the flight-recorder lane (the pool worker id). `opts` are the
/// job's options; the loop reads `d_threshold`, `local_capacity`,
/// `update_weights` and `trace`. Reentrant: many workers may run this
/// concurrently against the same JobControls/scheduler, each with a
/// distinct slot.
void run_job_worker(const search::Expander& expander, db::WeightStore& weights,
                    WorkStealingScheduler& net, unsigned slot,
                    std::uint16_t lane, WorkerStats& ws,
                    const ParallelOptions& opts, JobControls& ctl);

}  // namespace blog::parallel
