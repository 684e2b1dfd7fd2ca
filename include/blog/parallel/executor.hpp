/// \file
/// \brief Executor: the process-wide persistent worker pool.
///
/// §6's machine is a *standing* array of processors fed by the
/// minimum-seeking network. The Executor makes the processor array
/// resident: `workers` threads are created, NUMA-placed, and pinned
/// **once** (round-robin across the detected topology), and every query
/// becomes a schedulable *job* multiplexed onto the pool. It is the only
/// code that starts search threads: ParallelEngine and the AND-parallel
/// path submit jobs to one.
///
/// Isolation: each job owns a private WorkStealingScheduler — its partition
/// of the minimum-seeking network. Two concurrent jobs' chains can never
/// mix because they live in different schedulers, and each scheduler's
/// outstanding-work counter is that job's termination detector (no global
/// coordination between jobs). A job asks for `slots` processors; the
/// run-queue hands (job, slot) pairs to free pool workers FIFO, so a job
/// may run narrower than requested while the pool is busy — correctness
/// does not depend on all slots attaching (work-stealing scans every
/// deque, attached or not).
///
/// Lifecycle: submit() never blocks — the job is queued (bounded) or
/// refused. The run-queue is the only line a job waits in: a worker starts
/// a new job only while fewer than `max_running_jobs` run, and
/// `queue_limit` bounds the jobs waiting for one to start. A JobTicket is
/// the client handle: wait()/poll(), queue_position(), cancel()
/// (cooperative: workers stop at their next expansion boundary), and
/// streamed answers via JobRequest::on_answer. A job also stops at its
/// next expansion boundary once the caller's ParallelOptions::cancel flag
/// is set.
#pragma once

#include <condition_variable>
#include <deque>

#include "blog/obs/metrics.hpp"
#include "blog/parallel/job.hpp"

namespace blog::parallel {

namespace detail {
struct JobState;
}  // namespace detail

/// Pool-wide configuration (fixed at construction).
struct ExecutorOptions {
  /// Pool size: worker threads created and pinned once. 0 = one per
  /// hardware thread (min 1).
  unsigned workers = 0;
  /// Most jobs waiting in line — not started, and no idle worker free to
  /// start them; submit() refuses beyond this (returns an invalid ticket —
  /// shed, never parked).
  std::size_t queue_limit = 256;
  /// Most jobs running at once: a worker starts a new job only while fewer
  /// than this many run (a started job still takes its remaining slots).
  /// 0 = no cap beyond the pool size.
  std::size_t max_running_jobs = 0;
  /// Place workers round-robin across NUMA nodes, each pinned to its
  /// node's CPUs.
  bool numa_aware = true;
  /// Metrics registry for executor gauges/counters
  /// (executor.jobs_queued/jobs_running/workers_busy, executor.jobs_*).
  /// May be null (no metrics). Must outlive the executor.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One query as a schedulable job. The referenced program/weights/builtins
/// must outlive the job (pin a snapshot via `keepalive`).
struct JobRequest {
  const db::Program* program = nullptr;
  db::WeightStore* weights = nullptr;
  search::BuiltinEvaluator* builtins = nullptr;
  search::Query query;
  /// Parallel width: scheduler slots this job asks for (clamped to the
  /// pool size). 1 = sequential solve (SearchEngine semantics — `strategy`
  /// applies) run on one pool worker.
  unsigned slots = 1;
  /// AND-parallel child work items: extra root queries seeded into the
  /// job's scheduler partition alongside `query`, so one termination
  /// detector (and one cancel) covers every forked subtree. Roots are
  /// tagged for attribution: `query` gets fork_tag 0, forks[i] gets
  /// fork_tag i+1. Any non-empty forks list makes the job parallel
  /// (scheduler-backed) even at slots == 1.
  std::vector<search::Query> forks;
  /// Optional per-fork-tag expansion counters (1 + forks.size() atomics,
  /// caller-owned, must outlive the job) — see JobControls::fork_nodes.
  std::atomic<std::uint64_t>* fork_nodes = nullptr;
  std::uint32_t fork_tag_count = 0;
  /// Open-list policy of a sequential (slots == 1) job; parallel jobs use
  /// the scheduler's best-first order.
  search::Strategy strategy = search::Strategy::BestFirst;
  /// Limits, §6 knobs, scheduler tuning, trace sink and the caller's
  /// `cancel` flag. `workers` is ignored (`slots` wins) and so is
  /// `on_solution` (use `on_answer`).
  ParallelOptions opts;
  /// Streamed answers: called once per recorded answer, in discovery
  /// order, from a pool worker. Calls for one job never overlap: a
  /// scheduler-backed job makes them under its solution lock, a one-slot
  /// job on its single worker, and every call returns before the job
  /// completes, so state it fills needs no lock of its own and is
  /// complete once wait() returns. The Solution is only valid during the
  /// call.
  std::function<void(const search::Solution&)> on_answer;
  /// Completion callback, invoked once from a pool worker (or from
  /// cancel()/shutdown for never-started jobs, whose result lists no
  /// workers) after the result is set, before waiters wake. Both callbacks
  /// are released once it returns, so they may hold the job's own ticket.
  std::function<void(const ParallelResult&)> on_complete;
  /// Arbitrary lifetime pin (e.g. the service's ProgramSnapshot).
  std::shared_ptr<const void> keepalive;
};

/// Client handle of one submitted job (shared-state future: cheap to copy).
class JobTicket {
 public:
  JobTicket() = default;

  /// False for a default-constructed ticket or a refused submit.
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// Process-unique job id (0 when invalid).
  [[nodiscard]] std::uint64_t id() const;
  /// True once the result is available (never blocks).
  [[nodiscard]] bool poll() const;
  /// Block until the job completes; the result stays valid while any
  /// ticket copy is alive. Invalid tickets return a static empty result.
  const ParallelResult& wait() const;
  /// wait(), then move the result out: no copy of the answers. Only for a
  /// ticket no other copy reads; they would see an empty result.
  ParallelResult take() const;
  /// Request cooperative cancellation. A still-queued job completes
  /// immediately with Outcome::Cancelled; a running job stops at its
  /// workers' next expansion boundary (answers found so far are kept).
  /// Returns false when the job had already completed.
  bool cancel() const;
  /// 0 when the job has started, is done, or an idle worker is free to
  /// start it; k > 0 when it is k-th in line for a running job to finish.
  [[nodiscard]] std::size_t queue_position() const;

 private:
  friend class Executor;
  explicit JobTicket(std::shared_ptr<detail::JobState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::JobState> state_;
};

/// The persistent worker pool.
class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {});
  /// Cancels queued jobs, stops running ones (cooperatively, at their
  /// workers' next expansion boundary), joins the pool. Every outstanding
  /// ticket completes before return; a job the teardown stopped completes
  /// Cancelled.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueue one job. Never blocks: returns an invalid ticket when the
  /// run-queue is at queue_limit (the caller sheds or retries).
  JobTicket submit(JobRequest req);

  /// Pool size actually created.
  [[nodiscard]] unsigned workers() const { return pool_size_; }

  struct Stats {
    std::uint64_t submitted = 0;   ///< jobs accepted by submit()
    std::uint64_t completed = 0;   ///< jobs finalized (any outcome)
    std::uint64_t cancelled = 0;   ///< completions with Outcome::Cancelled
    std::uint64_t rejected = 0;    ///< submits refused (queue full)
    std::size_t queued = 0;        ///< jobs no worker has started
    std::size_t running = 0;       ///< jobs started, search not yet over
    std::size_t busy_workers = 0;  ///< pool workers attached to a job
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class JobTicket;

  void worker_main(unsigned worker);
  std::size_t unstarted_locked() const;
  std::size_t startable_locked() const;
  void run_sequential(detail::JobState& job);
  void finalize(const std::shared_ptr<detail::JobState>& job);
  void complete(const std::shared_ptr<detail::JobState>& job,
                ParallelResult&& r);
  bool cancel_job(const std::shared_ptr<detail::JobState>& job);
  void update_gauges();

  ExecutorOptions opts_;
  unsigned pool_size_ = 0;
  std::size_t max_running_ = 0;       // the cap; no cap = max()
  mutable std::mutex mu_;             // guards queue_ + counters below
  std::condition_variable cv_;        // pool workers wait here
  std::deque<std::shared_ptr<detail::JobState>> queue_;
  // Jobs started (a slot claimed) whose last attached worker has not yet
  // returned; the destructor stops them.
  std::vector<std::shared_ptr<detail::JobState>> running_;
  bool stop_ = false;
  std::size_t busy_workers_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rejected_ = 0;
  std::atomic<std::uint64_t> next_job_id_{0};

  std::vector<std::thread> pool_;

  // Executor gauges (null when opts_.metrics is null).
  obs::Gauge* g_queued_ = nullptr;
  obs::Gauge* g_running_ = nullptr;
  obs::Gauge* g_busy_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
};

}  // namespace blog::parallel
