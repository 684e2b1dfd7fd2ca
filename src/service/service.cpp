#include "blog/service/service.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::service {

namespace detail {

/// Shared state behind one QueryTicket: the request, its snapshot pin,
/// delivery machinery, the admission phase, and the completion latch.
struct TicketState {
  QueryService* svc = nullptr;
  std::uint32_t qid = 0;
  std::uint16_t lane = 0;
  std::chrono::steady_clock::time_point t0;
  QueryRequest req;
  SubmitOptions sopts;
  std::string key;
  std::shared_ptr<const ProgramSnapshot> snap;
  search::Query q;
  search::ExecutionLimits limits;  ///< fixed at submit time
  std::unique_ptr<AnswerStream> stream;

  // Streaming dedup: the batch answer list is sorted + deduplicated, so
  // the stream emits each distinct text once (discovery order).
  std::mutex emit_mu;
  std::set<std::string> emitted;

  enum Phase : int { kPending, kDispatched, kDone };
  int phase = kDispatched;  // guarded by svc->async_mu_
  parallel::JobTicket job;  // set while dispatched; cleared at completion

  std::atomic<bool> done_flag{false};
  std::mutex mu;
  std::condition_variable cv;
  QueryResponse resp;
};

}  // namespace detail

namespace {

/// Render the parsed goals *and* the answer template back to text: one
/// canonical spelling for every formatting variant of the same query.
/// Quoted text reads back as the same term, so two queries share a key
/// only when they parse to the same goals and template (`p('Y',Y)` is not
/// `p(Y,Y)`, `p(-(1))` is not `p(-1)`):
///   - each goal is written as a conjunct (priority 999), so the goal text
///     reads back as the same goal list;
///   - anonymous variables print as `_`, exact for a query (each occurs
///     once), so re-keying the goal text gives the same key;
///   - ` $ ` separates the template; `$` never appears outside quotes in
///     quoted text, so the first such split is the only one;
///   - the template names the variables each answer reports.
std::string canonical_from(const search::Query& q) {
  constexpr term::WriteOptions kKeyText{.quoted = true, .number_vars = false};
  std::string key;
  for (std::size_t i = 0; i < q.goals.size(); ++i) {
    if (i > 0) key += ',';
    term::write_term(key, q.store, q.goals[i], kKeyText, 999);
  }
  key += " $ ";
  if (q.answer != term::kNullTerm) term::write_term(key, q.store, q.answer, kKeyText);
  return key;
}

}  // namespace

const char* query_status_name(QueryStatus s) {
  switch (s) {
    case QueryStatus::Ok: return "ok";
    case QueryStatus::Truncated: return "truncated";
    case QueryStatus::Rejected: return "rejected";
    case QueryStatus::ParseError: return "parse-error";
    case QueryStatus::Cancelled: return "cancelled";
  }
  return "?";
}

// ------------------------------------------------------------- admission --

AdmissionGate::AdmissionGate(std::size_t max_running, std::size_t max_queued)
    : max_running_(max_running == 0 ? 1 : max_running),
      max_queued_(max_queued) {}

bool AdmissionGate::try_enter() {
  std::lock_guard lock(mu_);
  if (running_ >= max_running_) return false;
  ++running_;
  ++admitted_;
  return true;
}

bool AdmissionGate::try_queue() {
  std::lock_guard lock(mu_);
  if (waiting_ >= max_queued_) {
    ++rejected_;
    return false;
  }
  ++waiting_;
  ++queued_;
  return true;
}

bool AdmissionGate::promote_queued() {
  std::lock_guard lock(mu_);
  if (waiting_ == 0 || running_ >= max_running_) return false;
  --waiting_;
  ++running_;
  ++admitted_;
  return true;
}

void AdmissionGate::abandon_queued() {
  std::lock_guard lock(mu_);
  if (waiting_ > 0) --waiting_;
}

void AdmissionGate::leave() {
  std::lock_guard lock(mu_);
  --running_;
}

AdmissionGate::Stats AdmissionGate::stats() const {
  std::lock_guard lock(mu_);
  return Stats{admitted_, queued_, rejected_, running_, waiting_};
}

// ---------------------------------------------------------- AnswerStream --

std::optional<std::string> AnswerStream::next() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return !q_.empty() || closed_; });
  if (q_.empty()) return std::nullopt;
  std::string s = std::move(q_.front());
  q_.pop_front();
  return s;
}

std::optional<std::string> AnswerStream::try_next() {
  std::lock_guard lock(mu_);
  if (q_.empty()) return std::nullopt;
  std::string s = std::move(q_.front());
  q_.pop_front();
  return s;
}

void AnswerStream::push(std::string text) {
  bool notify = false;
  {
    std::lock_guard lock(mu_);
    q_.push_back(std::move(text));
    notify = ++unnotified_ >= chunk_;
    if (notify) unnotified_ = 0;
  }
  if (notify) cv_.notify_all();
}

void AnswerStream::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    unnotified_ = 0;
  }
  cv_.notify_all();
}

// ----------------------------------------------------------- QueryTicket --

std::uint64_t QueryTicket::id() const { return st_ ? st_->qid : 0; }

bool QueryTicket::poll() const {
  return st_ != nullptr && st_->done_flag.load(std::memory_order_acquire);
}

const QueryResponse& QueryTicket::wait() const {
  static const QueryResponse kEmpty{};
  if (st_ == nullptr) return kEmpty;
  std::unique_lock lock(st_->mu);
  st_->cv.wait(lock,
               [&] { return st_->done_flag.load(std::memory_order_acquire); });
  return st_->resp;
}

bool QueryTicket::cancel() const {
  return st_ != nullptr && st_->svc->cancel_ticket(st_);
}

AnswerStream* QueryTicket::stream() const {
  return st_ ? st_->stream.get() : nullptr;
}

std::size_t QueryTicket::queue_position() const {
  return st_ ? st_->svc->ticket_queue_position(st_.get()) : 0;
}

// --------------------------------------------------------------- service --

QueryService::QueryService(ServiceOptions opts)
    : opts_(opts),
      weights_(opts.weight_params),
      cache_(opts.cache_shards, opts.cache_capacity_per_shard),
      gate_(opts.max_concurrent_queries, opts.admission_queue_limit) {
  trace_.store(opts.trace, std::memory_order_relaxed);
  parallel::ExecutorOptions eo;
  eo.workers = opts_.executor_workers;
  // The admission gate is the real bound; size the executor queue so it
  // never refuses what the gate admitted.
  eo.queue_limit =
      opts_.max_concurrent_queries + opts_.admission_queue_limit + 8;
  // Served queries are short; the per-expansion deadline check already
  // bounds their latency, so skip the preemption ticker thread.
  eo.preempt_interval = std::chrono::microseconds(0);
  eo.metrics = &metrics_;
  executor_ = std::make_unique<parallel::Executor>(eo);
}

QueryService::QueryService(const engine::Interpreter& seed, ServiceOptions opts)
    : QueryService(opts) {
  snapshots_.publish(seed.export_program());
}

QueryService::~QueryService() {
  {
    // Under async_mu_: a completion already inside drain_pending finishes
    // its dispatch first, and every later one sees shutdown_ and leaves
    // executor_ alone — reset() nulls the pointer before the pool joins.
    std::lock_guard lock(async_mu_);
    shutdown_ = true;
  }
  // Running jobs are cancelled cooperatively and finalized by the pool
  // before reset() returns; their completions skip drain_pending (shutdown
  // is set), so still-queued tickets are left for us to cancel below.
  executor_.reset();
  std::deque<std::shared_ptr<detail::TicketState>> left;
  {
    std::lock_guard lock(async_mu_);
    left.swap(pending_);
    for (auto& st : left) st->phase = detail::TicketState::kDone;
  }
  for (auto& st : left) {
    gate_.abandon_queued();
    cancelled_.inc();
    QueryResponse resp;
    resp.status = QueryStatus::Cancelled;
    resp.outcome = search::Outcome::Cancelled;
    resp.epoch = st->snap ? st->snap->epoch : 0;
    resp.error = "service shutting down";
    complete_ticket(st, std::move(resp));
  }
}

void QueryService::consult(std::string_view text) {
  const auto snap = snapshots_.consult(text);
  cache_.invalidate_older(snap->epoch);
}

void QueryService::consult_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  consult(ss.str());
}

void QueryService::end_session() {
  weights_.end_session();
  const auto snap = snapshots_.bump_weight_epoch();
  cache_.invalidate_older(snap->epoch);
}

std::string QueryService::canonical_key(std::string_view text) {
  return canonical_from(engine::parse_query(text));
}

void QueryService::deliver_answer(detail::TicketState* st,
                                  const std::string& text) {
  {
    std::lock_guard lock(st->emit_mu);
    if (!st->emitted.insert(text).second) return;  // already streamed
  }
  obs::trace(trace_.load(std::memory_order_acquire), obs::client_lane(),
             obs::EventKind::kAnswerStreamed, st->qid);
  if (st->sopts.on_answer) st->sopts.on_answer(text);
  if (st->stream) st->stream->push(text);
}

void QueryService::complete_ticket(
    const std::shared_ptr<detail::TicketState>& st, QueryResponse&& resp) {
  // Answers that never went through the live stream (cache hits,
  // parse/shed short-circuits with none) still reach
  // streaming consumers; the dedup set makes this a no-op for answers the
  // workers already streamed.
  if (st->sopts.on_answer || st->stream)
    for (const auto& a : resp.answers) deliver_answer(st.get(), a);
  if (st->stream) st->stream->close();
  latency_ms_.observe(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - st->t0)
                          .count());
  obs::trace(trace_.load(std::memory_order_acquire), st->lane,
             obs::EventKind::kQueryEnd, st->qid);
  if (st->sopts.on_complete) st->sopts.on_complete(resp);
  {
    std::lock_guard lock(st->mu);
    st->resp = std::move(resp);
    st->done_flag.store(true, std::memory_order_release);
  }
  st->cv.notify_all();
}

void QueryService::dispatch_locked(
    const std::shared_ptr<detail::TicketState>& st) {
  st->phase = detail::TicketState::kDispatched;
  parallel::JobRequest jr;
  jr.program = st->snap->program.get();
  jr.weights = &weights_;
  jr.builtins = &builtins_;
  jr.query = std::move(st->q);
  jr.slots = std::max(1u, st->req.workers);
  jr.strategy = st->req.strategy;
  // Limits were fixed at submit time: queue time counts against the
  // client's deadline.
  jr.opts.limits = st->limits;
  jr.opts.update_weights = opts_.update_weights;
  jr.opts.preempt_interval = std::chrono::microseconds(0);
  jr.opts.trace = trace_.load(std::memory_order_acquire);
  jr.keepalive = st->snap;
  if (st->sopts.on_answer || st->stream) {
    auto held = st;
    jr.on_answer = [held](const search::Solution& sol) {
      held->svc->deliver_answer(held.get(), sol.text);
    };
  }
  {
    auto held = st;
    jr.on_complete = [held](const parallel::ParallelResult& r) {
      held->svc->on_job_complete(held, r);
    };
  }
  st->job = executor_->submit(std::move(jr));
  if (!st->job.valid()) {
    // The executor refused (shutting down, or a queue bound below the
    // gate's): shed exactly like a full admission queue.
    st->phase = detail::TicketState::kDone;
    gate_.leave();
    rejected_.inc();
    QueryResponse resp;
    resp.status = QueryStatus::Rejected;
    resp.epoch = st->snap->epoch;
    resp.error = "executor queue full";
    complete_ticket(st, std::move(resp));
  }
}

void QueryService::on_job_complete(
    const std::shared_ptr<detail::TicketState>& st,
    const parallel::ParallelResult& r) {
  QueryResponse resp;
  resp.epoch = st->snap->epoch;
  resp.outcome = r.outcome;
  resp.nodes_expanded = r.nodes_expanded;
  resp.answers.reserve(r.solutions.size());
  for (const auto& s : r.solutions) resp.answers.push_back(s.text);
  resp.answers = engine::solution_texts(std::move(resp.answers));
  switch (r.outcome) {
    case search::Outcome::Exhausted:
      resp.status = QueryStatus::Ok;
      break;
    case search::Outcome::Cancelled:
      resp.status = QueryStatus::Cancelled;
      resp.error = "cancelled by client";
      cancelled_.inc();
      break;
    default:
      resp.status = QueryStatus::Truncated;
      break;
  }
  if (resp.status == QueryStatus::Truncated) {
    truncated_.inc();
    if (resp.outcome == search::Outcome::BudgetExceeded)
      obs::trace(trace_.load(std::memory_order_acquire), st->lane,
                 obs::EventKind::kBudgetExhausted, st->qid);
  }
  // Cache only complete answer sets — a partial set is an artifact of
  // strategy and budget, not of the program. The entry carries the epoch
  // the query ran under, so a consult that raced us can never serve it:
  // lookups require the then-current epoch.
  if (opts_.cache_enabled && resp.status == QueryStatus::Ok)
    cache_.insert(st->key, st->snap->epoch, resp.answers);
  {
    std::lock_guard lock(async_mu_);
    st->phase = detail::TicketState::kDone;
    st->job = parallel::JobTicket();  // break the state<->job ref cycle
  }
  gate_.leave();
  drain_pending();
  complete_ticket(st, std::move(resp));
}

void QueryService::drain_pending() {
  std::lock_guard lock(async_mu_);
  if (shutdown_) return;
  while (!pending_.empty() && gate_.promote_queued()) {
    auto st = pending_.front();
    pending_.pop_front();
    dispatch_locked(st);
  }
}

bool QueryService::cancel_ticket(
    const std::shared_ptr<detail::TicketState>& st) {
  std::unique_lock lock(async_mu_);
  if (st->done_flag.load(std::memory_order_acquire) ||
      st->phase == detail::TicketState::kDone)
    return false;
  if (st->phase == detail::TicketState::kPending) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), st));
    st->phase = detail::TicketState::kDone;
    lock.unlock();
    gate_.abandon_queued();
    cancelled_.inc();
    QueryResponse resp;
    resp.status = QueryStatus::Cancelled;
    resp.outcome = search::Outcome::Cancelled;
    resp.epoch = st->snap->epoch;
    resp.error = "cancelled while queued";
    complete_ticket(st, std::move(resp));
    return true;
  }
  parallel::JobTicket job = st->job;
  lock.unlock();
  // Running: cooperative — the job completes (status Cancelled) through
  // the normal on_job_complete path. False when it already finished.
  return job.cancel();
}

std::size_t QueryService::ticket_queue_position(
    const detail::TicketState* st) const {
  std::lock_guard lock(async_mu_);
  for (std::size_t i = 0; i < pending_.size(); ++i)
    if (pending_[i].get() == st) return i + 1;
  return 0;
}

QueryTicket QueryService::submit(const QueryRequest& req,
                                 SubmitOptions sopts) {
  auto st = std::make_shared<detail::TicketState>();
  st->svc = this;
  st->t0 = std::chrono::steady_clock::now();
  st->req = req;
  st->sopts = std::move(sopts);
  obs::TraceSink* const trace = trace_.load(std::memory_order_acquire);
  // Query ids pair kQueryBegin/kQueryEnd into one async span per request;
  // client lanes keep concurrent callers on separate trace rows.
  st->qid = next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  st->lane = trace != nullptr ? obs::client_lane() : 0;
  obs::trace(trace, st->lane, obs::EventKind::kQueryBegin, st->qid);
  if (st->sopts.stream)
    st->stream.reset(new AnswerStream(opts_.stream_chunk));

  QueryResponse resp;
  try {
    st->q = engine::parse_query(st->req.text);
    st->key = canonical_from(st->q);
  } catch (const term::ParseError& e) {
    parse_errors_.inc();
    resp.status = QueryStatus::ParseError;
    resp.error = e.what();
    complete_ticket(st, std::move(resp));
    return QueryTicket(st);
  }

  queries_.inc();
  st->snap = snapshots_.current();
  resp.epoch = st->snap->epoch;

  if (opts_.cache_enabled) {
    if (auto hit = cache_.lookup(st->key, st->snap->epoch)) {
      cache_hits_.inc();
      obs::trace(trace, st->lane, obs::EventKind::kCacheHit, st->qid);
      resp.answers = std::move(*hit);
      resp.from_cache = true;
      complete_ticket(st, std::move(resp));
      return QueryTicket(st);  // status Ok: only complete sets are cached
    }
    obs::trace(trace, st->lane, obs::EventKind::kCacheMiss, st->qid);
  }

  // Async admission: admit now, queue without parking, or shed — this
  // thread never blocks.
  st->limits = st->req.budget.limits();
  {
    std::lock_guard lock(async_mu_);
    if (shutdown_) {
      // fall through to shed below
    } else if (gate_.try_enter()) {
      dispatch_locked(st);
      return QueryTicket(st);
    } else if (gate_.try_queue()) {
      st->phase = detail::TicketState::kPending;
      pending_.push_back(st);
      return QueryTicket(st);
    }
  }
  rejected_.inc();
  obs::trace(trace, st->lane, obs::EventKind::kAdmissionShed, st->qid);
  resp.status = QueryStatus::Rejected;
  resp.error = "admission queue full";
  complete_ticket(st, std::move(resp));
  return QueryTicket(st);
}

QueryResponse QueryService::query(const QueryRequest& req) {
  return submit(req).wait();
}

QueryResponse QueryService::query(std::string_view text,
                                  const QueryBudget& budget) {
  QueryRequest req;
  req.text = std::string(text);
  req.budget = budget;
  return query(req);
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  s.queries = queries_.value();
  s.cache_hits = cache_hits_.value();
  s.truncated = truncated_.value();
  s.rejected = rejected_.value();
  s.parse_errors = parse_errors_.value();
  s.cancelled = cancelled_.value();
  s.latency_count = latency_ms_.count();
  s.latency_mean_ms = latency_ms_.mean();
  s.latency_p50_ms = latency_ms_.percentile(50);
  s.latency_p95_ms = latency_ms_.percentile(95);
  s.latency_p99_ms = latency_ms_.percentile(99);
  s.latency_max_ms = latency_ms_.max();
  const auto snap = snapshots_.current();
  s.epoch = snap->epoch;
  s.program_clauses = snap->program->size();
  s.cache = cache_.stats();
  s.admission = gate_.stats();
  return s;
}

}  // namespace blog::service
