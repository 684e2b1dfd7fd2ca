#include "blog/parallel/executor.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "blog/parallel/topology.hpp"
#include "blog/search/engine.hpp"

namespace blog::parallel {

namespace detail {

/// Everything one job owns: the request, its private scheduler partition,
/// shared controls, dispatch bookkeeping, and the completion latch.
struct JobState {
  std::uint64_t id = 0;
  Executor* exec = nullptr;
  JobRequest req;
  unsigned slots = 1;

  // Parallel machinery (slots > 1 or forked roots). The expander binds the request's
  // program/weights/builtins; the scheduler is this job's partition of the
  // minimum-seeking network (its outstanding-work counter is the per-job
  // termination detector).
  std::unique_ptr<search::Expander> expander;
  std::unique_ptr<WorkStealingScheduler> net;
  JobControls ctl;
  std::vector<WorkerStats> wstats;

  // The ticket's flag: JobTicket::cancel sets it. The one-slot path checks
  // it with the caller's flag; a scheduler-backed job is stopped through
  // its scheduler instead.
  std::atomic<bool> cancel_flag{false};

  // Dispatch bookkeeping, guarded by the executor's mu_.
  unsigned claimed = 0;  ///< slots handed to pool workers
  unsigned exited = 0;   ///< attached workers that returned
  bool in_queue = false;

  // Sequential (slots == 1) result, written by the sole attached worker
  // before it finalizes.
  ParallelResult seq_result;

  // Completion latch.
  std::atomic<bool> done_flag{false};
  std::mutex done_mu;
  std::condition_variable done_cv;
  ParallelResult result;
};

}  // namespace detail

using detail::JobState;

// ------------------------------------------------------------- JobTicket --

std::uint64_t JobTicket::id() const { return state_ ? state_->id : 0; }

bool JobTicket::poll() const {
  return state_ != nullptr &&
         state_->done_flag.load(std::memory_order_acquire);
}

const ParallelResult& JobTicket::wait() const {
  static const ParallelResult kEmpty{};
  if (state_ == nullptr) return kEmpty;
  std::unique_lock lock(state_->done_mu);
  state_->done_cv.wait(lock, [&] {
    return state_->done_flag.load(std::memory_order_acquire);
  });
  return state_->result;
}

ParallelResult JobTicket::take() const {
  if (state_ == nullptr) return {};
  wait();
  return std::move(state_->result);
}

bool JobTicket::cancel() const {
  if (state_ == nullptr || state_->exec == nullptr) return false;
  return state_->exec->cancel_job(state_);
}

std::size_t JobTicket::queue_position() const {
  if (!state_ || state_->done_flag.load(std::memory_order_acquire)) return 0;
  const Executor& exec = *state_->exec;
  std::lock_guard lock(exec.mu_);
  if (!state_->in_queue || state_->claimed > 0) return 0;
  // Started jobs sit only at the front, so this counts unstarted jobs up
  // to and including this one; the first few an idle worker takes.
  std::size_t k = 0;
  for (const auto& j : exec.queue_) {
    k += j->claimed == 0 ? 1 : 0;
    if (j == state_) break;
  }
  const std::size_t startable = exec.startable_locked();
  return k > startable ? k - startable : 0;
}

// -------------------------------------------------------------- Executor --

Executor::Executor(ExecutorOptions opts) : opts_(opts) {
  pool_size_ = opts_.workers != 0
                   ? opts_.workers
                   : std::max(1u, std::thread::hardware_concurrency());
  max_running_ = opts_.max_running_jobs != 0
                     ? opts_.max_running_jobs
                     : std::numeric_limits<std::size_t>::max();
  if (opts_.metrics != nullptr) {
    g_queued_ = &opts_.metrics->gauge("executor.jobs_queued");
    g_running_ = &opts_.metrics->gauge("executor.jobs_running");
    g_busy_ = &opts_.metrics->gauge("executor.workers_busy");
    c_completed_ = &opts_.metrics->counter("executor.jobs_completed");
  }
  pool_.reserve(pool_size_);
  for (unsigned w = 0; w < pool_size_; ++w)
    pool_.emplace_back([this, w] { worker_main(w); });
}

Executor::~Executor() {
  std::vector<std::shared_ptr<JobState>> live;
  {
    std::lock_guard lock(mu_);
    stop_ = true;  // workers claim nothing more
    // Every started job, then every job no worker has started.
    live = running_;
    for (const auto& job : queue_)
      if (job->claimed == 0) live.push_back(job);
  }
  cv_.notify_all();
  // The client's cancel: an unstarted job completes Cancelled here, a
  // started one stops cooperatively and its own workers finalize it.
  for (const auto& job : live) cancel_job(job);
  for (auto& t : pool_) t.join();
}

JobTicket Executor::submit(JobRequest req) {
  auto job = std::make_shared<JobState>();
  job->exec = this;
  job->id = next_job_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  job->slots = std::clamp(req.slots, 1u, pool_size_);
  job->req = std::move(req);
  JobRequest& r = job->req;

  // A job is scheduler-backed when it wants parallel width OR carries
  // AND-parallel child work items (forked roots need the partition's
  // termination detector even at slots == 1).
  if (job->slots > 1 || !r.forks.empty()) {
    job->expander = std::make_unique<search::Expander>(
        *r.program, *r.weights, r.builtins, r.opts.expander);
    SchedulerTuning tuning;
    tuning.adaptive = r.opts.adaptive_capacity;
    tuning.ewma_window = r.opts.capacity_ewma_window;
    tuning.local_capacity_seed = r.opts.local_capacity;
    tuning.trace = r.opts.trace;
    job->net = std::make_unique<WorkStealingScheduler>(
        job->slots, r.opts.steal_deque_capacity, tuning);
    job->net->push_root(job->expander->make_root(r.query));
    for (std::size_t i = 0; i < r.forks.size(); ++i) {
      search::DetachedNode root = job->expander->make_root(r.forks[i]);
      root.fork_tag = static_cast<std::uint32_t>(i + 1);
      job->net->push_root(std::move(root));
    }
    job->ctl.arm(r.opts.limits, r.opts.cancel);
    job->ctl.fork_nodes = r.fork_nodes;
    job->ctl.fork_tag_count = r.fork_tag_count;
    if (r.on_answer) {
      JobState* js = job.get();
      job->ctl.on_solution = [js](const search::Solution& s) {
        js->req.on_answer(s);
      };
    }
    job->wstats.resize(job->slots);
  }

  {
    std::lock_guard lock(mu_);
    queue_.push_back(job);
    // Shed a job that would wait in line beyond the limit; one an idle
    // worker is free to start never counts against it.
    if (stop_ || unstarted_locked() - startable_locked() > opts_.queue_limit) {
      queue_.pop_back();
      ++rejected_;
      return JobTicket();
    }
    job->in_queue = true;
    ++submitted_;
    update_gauges();
  }
  obs::trace(r.opts.trace, obs::client_lane(), obs::EventKind::kJobSubmit,
             static_cast<std::uint32_t>(job->id));
  // One free worker per requested slot has something new to do.
  if (job->slots == 1)
    cv_.notify_one();
  else
    cv_.notify_all();
  return JobTicket(job);
}

bool Executor::cancel_job(const std::shared_ptr<detail::JobState>& job) {
  if (job->done_flag.load(std::memory_order_acquire)) return false;
  job->cancel_flag.store(true, std::memory_order_relaxed);
  bool orphaned = false;
  {
    std::lock_guard lock(mu_);
    if (job->in_queue && job->claimed == 0) {
      // Never dispatched: unhook it and complete on this thread.
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      job->in_queue = false;
      orphaned = true;
      update_gauges();
    } else if (job->net && job->exited < job->claimed) {
      // Running: first-stop-wins the cause, then stop the job's scheduler
      // so workers blocked in acquire() wake and drain. A job whose workers
      // have all returned is being finalized with the outcome it reached.
      report_stop(job->ctl.stop_cause, search::Outcome::Cancelled);
      job->net->stop();
    }
    // A running one-slot job only needs cancel_flag (checked by the
    // engine once per expansion).
  }
  obs::trace(job->req.opts.trace, obs::client_lane(),
             obs::EventKind::kJobCancel, static_cast<std::uint32_t>(job->id));
  if (orphaned) {
    ParallelResult r;  // no workers: none ever attached
    r.outcome = search::Outcome::Cancelled;
    complete(job, std::move(r));
  }
  return true;
}

void Executor::worker_main(unsigned worker) {
  // NUMA placement: round-robin across detected nodes, pinned once for
  // the pool's lifetime (best effort).
  const Topology& topo = Topology::system();
  unsigned numa_node = 0;
  if (opts_.numa_aware && !topo.single_node()) {
    numa_node = topo.node_of_worker(worker);
    if (opts_.numa_pin_workers) pin_current_thread_to_node(topo, numa_node);
  }

  // Under a cap below the pool size, idle workers sleep past jobs the cap
  // holds back, so whoever frees or fills a cap slot wakes them.
  const bool capped = max_running_ < pool_size_;
  bool busy = false;  // back from a job: counted busy until it re-claims
  for (;;) {
    std::shared_ptr<JobState> job;
    unsigned slot = 0;
    bool first = false;
    bool wake = false;
    {
      std::unique_lock lock(mu_);
      if (busy) {
        --busy_workers_;
        busy = false;
        update_gauges();
      }
      // Claim the front job's next slot; starting it needs room under the cap.
      cv_.wait(lock, [&] {
        return stop_ || (!queue_.empty() && (queue_.front()->claimed > 0 ||
                                             running_.size() < max_running_));
      });
      if (stop_) return;
      job = queue_.front();
      slot = job->claimed++;
      first = slot == 0;
      if (first) {
        running_.push_back(job);
        wake = capped && job->claimed < job->slots;
      }
      if (job->claimed >= job->slots) {
        queue_.pop_front();
        job->in_queue = false;
      }
      ++busy_workers_;
      busy = true;
      update_gauges();
    }
    if (wake) cv_.notify_all();
    if (first)
      obs::trace(job->req.opts.trace, static_cast<std::uint16_t>(worker),
                 obs::EventKind::kJobStart,
                 static_cast<std::uint32_t>(job->id));

    if (job->net) {
      if (!job->wstats[slot].numa_node) job->wstats[slot].numa_node = numa_node;
      run_job_worker(*job->expander, *job->req.weights, *job->net, slot,
                     static_cast<std::uint16_t>(worker), job->wstats[slot],
                     job->req.opts, job->ctl);
    } else {
      run_sequential(*job);
    }

    bool last = false;
    {
      std::lock_guard lock(mu_);
      if (job->in_queue) {
        // This worker came back before the job's remaining slots were
        // claimed (the search is over): retire the queue entry so no one
        // else attaches. A partially claimed job is always at the front —
        // claims only ever come off the front, and a job leaves it only
        // when fully claimed, finished, or cancelled.
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
        job->in_queue = false;
      }
      last = ++job->exited == job->claimed;
      if (last) std::erase(running_, job);
      wake = last && capped && !queue_.empty();
      update_gauges();
    }
    if (wake) cv_.notify_one();
    if (last) finalize(job);
  }
}

void Executor::run_sequential(detail::JobState& job) {
  JobRequest& r = job.req;
  search::SearchOptions so;
  so.strategy = r.strategy;
  so.limits = r.opts.limits;
  so.update_weights = r.opts.update_weights;
  so.expander = r.opts.expander;
  so.trace = r.opts.trace;
  so.cancel = r.opts.cancel;
  if (r.on_answer) so.on_solution = r.on_answer;
  search::SearchEngine eng(*r.program, *r.weights, r.builtins);
  auto sr = eng.solve(r.query, so, nullptr, &job.cancel_flag);
  // The job's only root carries fork tag 0.
  if (r.fork_nodes != nullptr && r.fork_tag_count > 0)
    r.fork_nodes[0].fetch_add(sr.stats.nodes_expanded,
                              std::memory_order_relaxed);

  ParallelResult pr;
  pr.solutions = std::move(sr.solutions);
  pr.outcome = sr.outcome;
  pr.exhausted = sr.exhausted;
  pr.nodes_expanded = sr.stats.nodes_expanded;
  pr.workers.resize(1);
  pr.workers[0].expanded = sr.stats.nodes_expanded;
  pr.workers[0].solutions = sr.stats.solutions;
  pr.workers[0].failures = sr.stats.failures;
  pr.workers[0].trail_writes = sr.stats.expand.trail_writes;
  pr.workers[0].depth_cutoffs = sr.stats.depth_cutoffs;
  job.seq_result = std::move(pr);
}

void Executor::finalize(const std::shared_ptr<detail::JobState>& job) {
  ParallelResult r;
  if (job->net) {
    r.solutions = std::move(job->ctl.solutions);
    r.workers = std::move(job->wstats);
    r.network = job->net->stats();
    r.exhausted = !job->net->stopped();
    r.outcome = job->ctl.outcome(r.exhausted);
    for (const auto& ws : r.workers) r.nodes_expanded += ws.expanded;
  } else {
    r = std::move(job->seq_result);
  }
  complete(job, std::move(r));
}

void Executor::complete(const std::shared_ptr<detail::JobState>& job,
                        ParallelResult&& r) {
  {
    std::lock_guard lock(mu_);
    ++completed_;
    if (r.outcome == search::Outcome::Cancelled) ++cancelled_;
  }
  if (c_completed_ != nullptr) c_completed_->inc();
  obs::trace(job->req.opts.trace, obs::client_lane(),
             obs::EventKind::kJobDone, static_cast<std::uint32_t>(job->id));
  // The completion callback runs before waiters wake so a submit().wait()
  // wrapper observes the callback's side effects (cache insert). Calling
  // JobTicket::wait from inside on_complete deadlocks. Both callbacks go
  // with the completion: they may hold state that holds this job's ticket.
  const auto on_complete = std::exchange(job->req.on_complete, nullptr);
  job->req.on_answer = nullptr;
  if (on_complete) on_complete(r);
  {
    std::lock_guard lock(job->done_mu);
    job->result = std::move(r);
    job->done_flag.store(true, std::memory_order_release);
  }
  job->done_cv.notify_all();
}

Executor::Stats Executor::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.rejected = rejected_;
  s.queued = unstarted_locked();
  s.running = running_.size();
  s.busy_workers = busy_workers_;
  return s;
}

std::size_t Executor::unstarted_locked() const {
  // Claims come off the front only, so only the front can have started.
  return queue_.size() - (!queue_.empty() && queue_.front()->claimed > 0 ? 1 : 0);
}

std::size_t Executor::startable_locked() const {
  // Workers claim front to back: a started job's open slots fill first,
  // and each start needs an idle worker and room under the cap.
  std::size_t idle = pool_size_ - busy_workers_;
  std::size_t room = max_running_ - running_.size();
  std::size_t n = 0;
  for (const auto& job : queue_) {
    if (idle == 0) break;
    if (job->claimed == 0) {
      if (room == 0) break;
      --room;
      ++n;
    }
    idle -= std::min<std::size_t>(idle, job->slots - job->claimed);
  }
  return n;
}

void Executor::update_gauges() {
  if (g_queued_ != nullptr)
    g_queued_->set(static_cast<double>(unstarted_locked()));
  if (g_running_ != nullptr)
    g_running_->set(static_cast<double>(running_.size()));
  if (g_busy_ != nullptr) g_busy_->set(static_cast<double>(busy_workers_));
}

}  // namespace blog::parallel
