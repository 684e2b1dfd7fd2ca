/// \file
/// \brief Thread-parallel B-LOG search (§6's machine behaviour on real
/// threads).
///
/// Each worker is a "processor" running chains *in place* in a worker-local
/// store (a search::Runner): expanding a chain trails its bindings and
/// parks the untried alternatives as lightweight pending choices, so no
/// state is copied while work stays on the processor. Choices beyond the
/// local capacity are shared through the WorkStealingScheduler (the
/// minimum-seeking network) as copy-on-steal handles: only their bounds
/// enter the network, and the deep copy happens when a thief claims one.
/// Whole local pools migrate through the network (one batch) when §6's
/// D-threshold says the network minimum is more than D below the local
/// minimum and the freed worker should acquire the remote chain instead.
///
/// The workers are an Executor's pool (executor.hpp): ParallelEngine starts
/// one per engine and submits every solve to it as one job.
#pragma once

#include <memory>

#include "blog/engine/interpreter.hpp"
#include "blog/parallel/scheduler.hpp"

namespace blog::parallel {

class Executor;

/// Configuration of one parallel search job: worker count, budgets, §6
/// thresholds, and the scheduler's spill/adaptivity behaviour. See
/// docs/TUNING.md for the knob-by-knob guide.
struct ParallelOptions {
  /// Worker ("processor") thread count; 0 is clamped to 1.
  unsigned workers = 4;
  double d_threshold = 0.0;      ///< §6's D (bound units)
  /// Node/solution/deadline cutoffs (shared with the sequential layer).
  /// Workers check them cooperatively once per expansion; max_solutions is
  /// exact (never overshoots).
  search::ExecutionLimits limits;
  /// Pending choices kept private; the rest are published to the
  /// scheduler as copy-on-steal handles (deep-copied only when a thief
  /// claims one).
  std::size_t local_capacity = 8;
  bool update_weights = true;      ///< apply §5 updates as chains resolve
  std::size_t steal_deque_capacity = 64;  ///< per-worker deque bound
  /// Let the scheduler float local_capacity / steal_deque_capacity around
  /// their seeds with each worker's observed steal pressure (EWMA over
  /// SchedulerTuning's 64 spill events, bounds [4, 512] for the default
  /// seeds). Turn off to pin the static knobs exactly.
  bool adaptive_capacity = true;
  search::ExpanderOptions expander;  ///< resolution-step options
  /// Cooperative cancellation: when non-null and set, every worker stops
  /// at its next expansion boundary and the solve returns
  /// Outcome::Cancelled with the answers found so far. Must outlive solve.
  const std::atomic<bool>* cancel = nullptr;
  /// Streaming hook of ParallelEngine::solve: called once per recorded
  /// answer, in discovery order, under the job's solution lock. The
  /// Solution reference is valid only during the call. An Executor job
  /// streams through JobRequest::on_answer instead.
  std::function<void(const search::Solution&)> on_solution;
  /// Flight recorder (obs/trace.hpp). When non-null, workers and the
  /// scheduler record steal/spill/migration/solution events into it; null (the default) costs one branch per site. The sink must
  /// outlive the solve call.
  obs::TraceSink* trace = nullptr;
};

/// Per-worker counters of one solve run (one entry per worker thread in
/// ParallelResult::workers).
struct WorkerStats {
  std::uint64_t expanded = 0;        ///< chains this worker expanded
  std::uint64_t local_takes = 0;     ///< in-place activations (no copying)
  std::uint64_t network_takes = 0;   ///< chains migrated through the net
  std::uint64_t spills = 0;          ///< detached choices pushed to the network
  std::uint64_t spill_batches = 0;   ///< lock acquisitions those spills cost
  std::uint64_t solutions = 0;       ///< answers this worker recorded
  std::uint64_t failures = 0;        ///< failed chains (§5 update triggers)
  std::uint64_t cells_copied = 0;    ///< cells deep-copied at migration points
  // Copy-on-steal accounting.
  std::uint64_t handles_published = 0;  ///< choices shared as lazy handles
  std::uint64_t handles_reclaimed = 0;  ///< reclaimed in place: zero copies
  std::uint64_t handles_granted = 0;    ///< claimed by a thief: one copy
  std::uint64_t handles_migrated = 0;   ///< left with a detach_all batch
  /// Trail entries this worker's runner wrote over its lifetime. The
  /// static-analysis commit path drives this down: committed ground-fact
  /// matches write no trail at all.
  std::uint64_t trail_writes = 0;
  /// Chains cut at ExpanderOptions::max_depth: the tree below them was
  /// never searched, so an exhausted run with cutoffs is incomplete.
  std::uint64_t depth_cutoffs = 0;
  /// NUMA node this worker was placed on (0 on single-node hosts).
  std::uint32_t numa_node = 0;
};

/// Everything a parallel solve returns: the answers, per-worker and
/// scheduler traffic counters, and why the search ended.
struct ParallelResult {
  std::vector<search::Solution> solutions;  ///< recorded answers
  /// One entry per worker; empty when the job never started.
  std::vector<WorkerStats> workers;
  SchedulerStats network;                   ///< scheduler traffic counters
  std::uint64_t nodes_expanded = 0;         ///< total expansions, all workers
  search::Outcome outcome = search::Outcome::Exhausted;  ///< why solve ended
  bool exhausted = false;  ///< true when the whole OR-tree was consumed
};

/// §6's parallel machine on real threads: N workers, each an in-place
/// Runner, exchanging work through a WorkStealingScheduler (the
/// minimum-seeking network analogue). The engine owns an Executor of
/// max(1, workers) threads, started once and reused by every solve.
class ParallelEngine {
public:
  /// Bind the engine to a program/weight store/builtin evaluator and start
  /// its pool. The referenced objects must outlive the engine.
  ParallelEngine(const db::Program& program, db::WeightStore& weights,
                 search::BuiltinEvaluator* builtins, ParallelOptions opts = {});
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Run one parallel search of `q` to completion (or budget/stop) as one
  /// job on the engine's pool. At one worker the job is a depth-first
  /// SearchEngine solve, which visits the chains in the same order.
  ParallelResult solve(const search::Query& q);

private:
  const db::Program& program_;
  db::WeightStore& weights_;
  search::BuiltinEvaluator* builtins_;
  ParallelOptions opts_;
  std::unique_ptr<Executor> pool_;
};

}  // namespace blog::parallel
