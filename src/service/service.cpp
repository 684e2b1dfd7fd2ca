#include "blog/service/service.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::service {

namespace detail {

/// Shared state behind one QueryTicket: delivery machinery, the job that
/// runs it, and the completion latch.
struct TicketState {
  std::uint32_t qid = 0;
  std::uint16_t lane = 0;
  std::chrono::steady_clock::time_point t0;
  SubmitOptions sopts;
  std::string key;
  std::uint64_t epoch = 0;  ///< snapshot the query runs against
  std::unique_ptr<AnswerStream> stream;

  // Streaming dedup: the batch answer list is sorted + deduplicated, so
  // the stream emits each distinct text once (discovery order).
  std::mutex emit_mu;
  std::set<std::string> emitted;

  /// Written once by submit() before the ticket is handed out; invalid
  /// for a query that never reached the pool (parse error, hit, shed).
  parallel::JobTicket job;

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
  {
    std::lock_guard lock(mu_);
    q_.push_back(std::move(text));
  }
  cv_.notify_all();
}

void AnswerStream::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
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
  // A queued job completes at once ("cancelled while queued"); a running
  // one stops cooperatively and completes through on_job_complete.
  return st_ != nullptr && !poll() && st_->job.cancel();
}

AnswerStream* QueryTicket::stream() const {
  return st_ ? st_->stream.get() : nullptr;
}

std::size_t QueryTicket::queue_position() const {
  return st_ ? st_->job.queue_position() : 0;
}

// --------------------------------------------------------------- service --

QueryService::QueryService(ServiceOptions opts)
    : opts_(opts),
      weights_(opts.weight_params),
      cache_(opts.cache_shards, opts.cache_capacity_per_shard) {
  trace_.store(opts.trace, std::memory_order_relaxed);
  parallel::ExecutorOptions eo;
  eo.workers = opts_.executor_workers;
  eo.queue_limit = opts_.admission_queue_limit;
  eo.max_running_jobs = std::max<std::size_t>(opts_.max_concurrent_queries, 1);
  eo.metrics = &metrics_;
  executor_ = std::make_unique<parallel::Executor>(eo);
}

QueryService::QueryService(const engine::Interpreter& seed, ServiceOptions opts)
    : QueryService(opts) {
  snapshots_.publish(seed.export_program());
}

QueryService::~QueryService() {
  closing_.store(true, std::memory_order_relaxed);
  // Every ticket completes before reset() returns: queued jobs as
  // Cancelled on this thread, running ones stopped and finalized by their
  // workers.
  executor_.reset();
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
  obs::trace(trace_.load(std::memory_order_acquire), st->lane,
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

void QueryService::on_job_complete(
    const std::shared_ptr<detail::TicketState>& st,
    const parallel::ParallelResult& r) {
  QueryResponse resp;
  resp.epoch = st->epoch;
  resp.outcome = r.outcome;
  resp.nodes_expanded = r.nodes_expanded;
  resp.answers.reserve(r.solutions.size());
  for (const auto& s : r.solutions) resp.answers.push_back(s.text);
  resp.answers = engine::solution_texts(std::move(resp.answers));
  std::uint64_t depth_cutoffs = 0;
  for (const auto& ws : r.workers) depth_cutoffs += ws.depth_cutoffs;
  if (r.outcome == search::Outcome::Cancelled) {
    resp.status = QueryStatus::Cancelled;
    // Teardown stops queued and running jobs alike; otherwise a job no
    // worker ever attached to was dropped from the pool's queue.
    resp.error = closing_.load(std::memory_order_relaxed) ? "service shutting down"
                 : !r.workers.empty()                     ? "cancelled by client"
                                                          : "cancelled while queued";
    cancelled_.inc();
  } else if (r.outcome == search::Outcome::Exhausted && depth_cutoffs == 0) {
    resp.status = QueryStatus::Ok;
  } else {
    resp.status = QueryStatus::Truncated;
    truncated_.inc();
    if (depth_cutoffs > 0)
      resp.error = "depth limit " +
                   std::to_string(search::ExpanderOptions{}.max_depth) +
                   " cut the search: answers may be missing";
    if (resp.outcome == search::Outcome::BudgetExceeded)
      obs::trace(trace_.load(std::memory_order_acquire), st->lane,
                 obs::EventKind::kBudgetExhausted, st->qid);
  }
  // Cache only complete answer sets — a partial set is an artifact of
  // strategy, budget and depth limit, not of the program. The entry
  // carries the epoch the query ran under, so a consult that raced us can
  // never serve it: lookups require the then-current epoch.
  if (opts_.cache_enabled && resp.status == QueryStatus::Ok)
    cache_.insert(st->key, st->epoch, resp.answers);
  complete_ticket(st, std::move(resp));
}

QueryTicket QueryService::submit(const QueryRequest& req,
                                 SubmitOptions sopts) {
  auto st = std::make_shared<detail::TicketState>();
  st->t0 = std::chrono::steady_clock::now();
  st->sopts = std::move(sopts);
  obs::TraceSink* const trace = trace_.load(std::memory_order_acquire);
  // Query ids pair kQueryBegin/kQueryEnd into one async span per request;
  // client lanes keep concurrent callers on separate trace rows.
  st->qid = next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  st->lane = trace != nullptr ? obs::client_lane() : 0;
  obs::trace(trace, st->lane, obs::EventKind::kQueryBegin, st->qid);
  if (st->sopts.stream)
    st->stream.reset(new AnswerStream());

  QueryResponse resp;
  parallel::JobRequest jr;
  try {
    jr.query = engine::parse_query(req.text);
    st->key = canonical_from(jr.query);
  } catch (const term::ParseError& e) {
    parse_errors_.inc();
    resp.status = QueryStatus::ParseError;
    resp.error = e.what();
    complete_ticket(st, std::move(resp));
    return QueryTicket(st);
  }

  queries_.inc();
  auto snap = snapshots_.current();
  st->epoch = resp.epoch = snap->epoch;

  if (opts_.cache_enabled) {
    if (auto hit = cache_.lookup(st->key, st->epoch)) {
      cache_hits_.inc();
      obs::trace(trace, st->lane, obs::EventKind::kCacheHit, st->qid);
      resp.answers = std::move(*hit);
      resp.from_cache = true;
      complete_ticket(st, std::move(resp));
      return QueryTicket(st);  // status Ok: only complete sets are cached
    }
    obs::trace(trace, st->lane, obs::EventKind::kCacheMiss, st->qid);
  }

  // A miss goes straight to the pool's run-queue, which starts it, queues
  // it without parking this thread, or refuses it (shed below).
  jr.program = snap->program.get();
  jr.weights = &weights_;
  jr.builtins = &builtins_;
  jr.slots = std::max(1u, req.workers);
  jr.strategy = req.strategy;
  // Limits are fixed now: queue time counts against the client's deadline.
  jr.opts.limits = req.budget.limits();
  jr.opts.update_weights = opts_.update_weights;
  jr.opts.trace = trace;
  jr.keepalive = std::move(snap);
  if (st->sopts.on_answer || st->stream)
    jr.on_answer = [this, held = st](const search::Solution& sol) {
      deliver_answer(held.get(), sol.text);
    };
  jr.on_complete = [this, held = st](const parallel::ParallelResult& r) {
    on_job_complete(held, r);
  };
  st->job = executor_->submit(std::move(jr));
  if (st->job.valid()) return QueryTicket(st);
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
  s.admission = executor_->stats();
  return s;
}

}  // namespace blog::service
