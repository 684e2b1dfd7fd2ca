// serve: the multi-tenant front door. Four closed-loop client threads drive
// one QueryService whose executor has two workers and which admits two
// queries at a time, so the admission queue and the executor hand-off are on
// the measured path. About a fifth of the requests repeat a small hot set
// (answer-cache hits served inside submit()); the rest are point lookups and
// two-goal joins keyed by distinct employees, so they miss the cache and each
// runs a short search. Per-request fixed cost (parse, canonical key, cache,
// admission, hand-off, render) is most of each request.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "blog/analysis/domain.hpp"
#include "blog/service/service.hpp"
#include "blog/workloads/workloads.hpp"
#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kMaxConcurrent = 2;
constexpr int kHotShareInverse = 5;  // one request in five repeats the hot set
constexpr int kDagLayers = 3;
constexpr int kDagWidth = 3;
constexpr int kProbes = 256;   // sampled requests timed call by call
constexpr int kProbeSetups = 3;

struct Request {
  blog::service::QueryRequest req;
  Answers expected;
};

Request make_request(const Case& c) {
  Request r;
  r.req.text = c.text;
  r.expected = c.expected;
  return r;
}

/// One client's request stream: seeded hot/miss choice, misses walking this
/// client's quarter of a seeded permutation of every (kind, employee) key, so
/// a miss key does not repeat while it could still be cached.
class Stream {
public:
  Stream(std::uint64_t seed, int client, std::size_t hot, const std::vector<std::uint32_t>& perm)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(client) + 1),
        hot_(hot),
        perm_(perm),
        pos_(perm.size() / kClients * static_cast<std::size_t>(client)) {}

  /// Index into the hot set (< hot) or hot + index into the miss keys.
  std::size_t next() {
    if (rng_.below(kHotShareInverse) == 0) return rng_.below(hot_);
    const std::size_t key = perm_[pos_];
    pos_ = (pos_ + 1) % perm_.size();
    return hot_ + key;
  }

private:
  blog::Rng rng_;
  std::size_t hot_;
  const std::vector<std::uint32_t>& perm_;
  std::size_t pos_;
};

/// Per-client counters of the timed window.
struct ClientStats {
  LatencyHistogram latency;
  LatencyHistogram submit_ns, run_ns, wake_ns;  // traced blocks only
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t ops_traced = 0, ops_untraced = 0;
  std::uint64_t hits = 0, queued = 0, misses = 0, miss_nodes = 0;  // traced blocks
  std::int64_t end_ns = 0;
  std::unique_ptr<SpanLog> log;
};

}  // namespace

Report run_serve(const Args& args) {
  blog::Rng rng(args.seed);
  const Company company(rng, kEmployees, kDepartments);
  const std::string text = company.text() + blog::workloads::figure1_family() +
                           blog::workloads::layered_dag(kDagLayers, kDagWidth);

  // Requests: the hot set first, then every (kind, employee) miss key.
  std::vector<Request> requests;
  for (const Case& c : family_cases()) requests.push_back(make_request(c));
  for (int i = 0; i < 2; ++i)
    requests.push_back(make_request(dag_paths(kDagLayers, kDagWidth,
                                              static_cast<int>(rng.below(kDagWidth)),
                                              static_cast<int>(rng.below(kDagWidth)))));
  for (int i = 0; i < 2; ++i)
    requests.push_back(make_request(
        company.lookup(i, static_cast<int>(rng.below(kEmployees)))));
  const std::size_t hot = requests.size();
  for (int e = 0; e < kEmployees; ++e)
    for (int k = 0; k < Company::kLookupKinds; ++k)
      requests.push_back(make_request(company.lookup(k, e)));
  std::vector<std::uint32_t> perm(requests.size() - hot);
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<std::uint32_t>(i);
  rng.shuffle(perm);

  blog::service::ServiceOptions so;
  so.executor_workers = kWorkers;
  so.max_concurrent_queries = kMaxConcurrent;

  Report rep;
  SpanLog setup_log(0, kKeptSpans);
  std::vector<double> setup_s, start_ms, consult_ms;
  auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto svc = std::make_unique<blog::service::QueryService>(so);
    const std::int64_t t1 = now_ns();
    svc->consult(text);
    const std::int64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    start_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    consult_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    setup_log.open("setup", Layer::kBench, 0, t0);
    setup_log.interval("parallel.pool_start", Layer::kParallel, 0, t0, t1);
    setup_log.interval("service.consult", Layer::kService, 0, t1, t2);
    setup_log.close(t2);
    return svc;
  };
  std::unique_ptr<blog::service::QueryService> svc;
  for (int i = 0; i < kSetupsBefore; ++i) {
    svc.reset();
    svc = setup();
  }

  std::vector<ClientStats> stats(kClients);
  for (int c = 0; c < kClients; ++c)
    stats[c].log = std::make_unique<SpanLog>(static_cast<std::uint16_t>(c + 1), kKeptSpans);
  std::atomic<long long> next_index{0};
  std::atomic<std::uint64_t> warm_failed{0};

  // Warm-up: each client serves its quarter of the miss keys once (fills the
  // weight store and the cache's hot set), then the timed closed loop.
  std::atomic<int> warm_left{kClients};
  std::atomic<std::int64_t> start{0};
  const auto window = static_cast<std::int64_t>(args.seconds * 1e9);
  auto client = [&](int c) {
    ClientStats& st = stats[c];
    Stream stream(args.seed, c, hot, perm);
    std::atomic<std::int64_t> completed_ns{0};
    blog::service::SubmitOptions traced_opts;
    traced_opts.on_complete = [&completed_ns](const blog::service::QueryResponse&) {
      completed_ns.store(now_ns(), std::memory_order_release);
    };
    auto check = [](const blog::service::QueryResponse& resp, const Request& r) {
      return resp.status == blog::service::QueryStatus::Ok && resp.answers == r.expected;
    };
    for (std::size_t i = 0; i < perm.size() / kClients + hot; ++i) {
      const Request& r = requests[i < hot ? i : stream.next()];
      if (!check(svc->submit(r.req).wait(), r)) warm_failed.fetch_add(1);
    }
    if (warm_left.fetch_sub(1) == 1) start.store(now_ns());
    while (start.load() == 0) std::this_thread::yield();
    const std::int64_t t_start = start.load();
    const TraceBlocks blocks(t_start);

    for (std::int64_t now = now_ns(); now - t_start < window; now = now_ns()) {
      const std::size_t idx = stream.next();
      const Request& r = requests[idx];
      const long long index = next_index.fetch_add(1, std::memory_order_relaxed);
      const bool traced = args.trace && blocks.traced(now);
      const std::int64_t t0 = now_ns();
      const blog::service::QueryTicket ticket =
          traced ? svc->submit(r.req, traced_opts) : svc->submit(r.req);
      const std::int64_t t1 = now_ns();
      const bool queued = traced && ticket.queue_position() > 0;
      const blog::service::QueryResponse& resp = ticket.wait();
      const std::int64_t t2 = now_ns();
      const bool ok = check(resp, r) && index != args.plant_wrong;
      ++st.attempted;
      if (!ok) ++st.failed;
      st.latency.add(t2 - t0);
      if (!traced) {
        ++st.ops_untraced;
        continue;
      }
      ++st.ops_traced;
      const std::int64_t tc =
          std::clamp(completed_ns.load(std::memory_order_acquire), t1, t2);
      st.submit_ns.add(t1 - t0);
      st.run_ns.add(tc - t1);
      st.wake_ns.add(t2 - tc);
      if (resp.from_cache) {
        ++st.hits;
      } else {
        ++st.misses;
        st.miss_nodes += resp.nodes_expanded;
      }
      if (queued) ++st.queued;
      const std::uint64_t qid = ticket.id();
      st.log->open("request", Layer::kBench, qid, t0);
      st.log->interval("service.submit", Layer::kService, qid, t0, t1);
      st.log->interval("service.run", Layer::kService, qid, t1, tc);
      st.log->interval("service.wake", Layer::kService, qid, tc, t2);
      st.log->close(now_ns());
    }
    st.end_ns = now_ns();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  ClientStats all;
  std::int64_t end = start.load();
  for (ClientStats& st : stats) {
    all.latency.merge(st.latency);
    all.submit_ns.merge(st.submit_ns);
    all.run_ns.merge(st.run_ns);
    all.wake_ns.merge(st.wake_ns);
    for (auto [dst, src] : {std::pair{&all.attempted, st.attempted}, {&all.failed, st.failed},
                            {&all.ops_traced, st.ops_traced}, {&all.ops_untraced, st.ops_untraced},
                            {&all.hits, st.hits}, {&all.queued, st.queued},
                            {&all.misses, st.misses}, {&all.miss_nodes, st.miss_nodes}})
      *dst += src;
    end = std::max(end, st.end_ns);
  }
  const std::uint64_t warm = warm_failed.load();
  rep.attempted = all.attempted + (perm.size() / kClients + hot) * kClients;
  rep.failed = all.failed + warm;
  rep.correct = rep.failed == 0;
  const double window_s = static_cast<double>(end - start.load()) / 1e9;
  if (!args.trace) {
    const double rss_mb = peak_rss_mb();
    svc.reset();
    for (int i = 0; i < kSetupsAfter; ++i) setup();
    add_end_to_end(rep, static_cast<double>(all.attempted) / window_s, all.latency, rss_mb,
                   median(setup_s));
    return rep;
  }

  const TraceBlocks blocks(start.load());
  rep.add("service.submit_us_p50", all.submit_ns.percentile_ns(0.50) / 1e3);
  rep.add("service.submit_us_p99", all.submit_ns.percentile_ns(0.99) / 1e3);
  rep.add("service.run_us_p50", all.run_ns.percentile_ns(0.50) / 1e3);
  rep.add("service.run_us_p99", all.run_ns.percentile_ns(0.99) / 1e3);
  rep.add("service.wake_us_p50", all.wake_ns.percentile_ns(0.50) / 1e3);
  rep.add("service.wake_us_p99", all.wake_ns.percentile_ns(0.99) / 1e3);
  const auto share = [&](std::uint64_t n) {
    return all.ops_traced ? static_cast<double>(n) / static_cast<double>(all.ops_traced) : 0.0;
  };
  rep.add("service.cache_hit_share", share(all.hits));
  rep.add("service.queued_share", share(all.queued));
  rep.add("service.nodes_per_miss",
          all.misses ? static_cast<double>(all.miss_nodes) / static_cast<double>(all.misses) : 0.0);
  const double traced_qps = static_cast<double>(all.ops_traced) / blocks.time_in(true, end);
  const double untraced_qps = static_cast<double>(all.ops_untraced) / blocks.time_in(false, end);
  rep.add("trace.overhead", untraced_qps > 0 ? traced_qps / untraced_qps : 0.0);
  std::vector<const SpanLog*> logs;
  for (const ClientStats& st : stats) logs.push_back(st.log.get());
  add_layer_shares(rep, logs);

  // Sampled request texts, timed call by call against the live service:
  // canonical key, a search against the published snapshot, rendering.
  SpanLog probe_log(kClients + 1, kKeptSpans);
  std::vector<double> key_us, lookup_us, render_us;
  const auto snap = svc->snapshot();
  Stream stream(args.seed + 1, 0, hot, perm);
  for (int i = 0; i < kProbes; ++i) {
    const Request& req = requests[stream.next()];
    const std::string& q = req.req.text;
    const std::int64_t t0 = now_ns();
    const std::string key = blog::service::QueryService::canonical_key(q);
    const std::int64_t t1 = now_ns();
    const blog::search::Query query = blog::engine::parse_query(q);
    blog::search::SearchEngine engine(*snap->program, svc->weights(), &svc->builtins());
    const std::int64_t t2 = now_ns();
    const blog::search::SearchResult r = engine.solve(query, {});
    const std::int64_t t3 = now_ns();
    const Answers texts = blog::engine::solution_texts(r);
    const std::int64_t t4 = now_ns();
    ++rep.attempted;
    if (r.outcome != blog::search::Outcome::Exhausted || texts != req.expected) ++rep.failed;
    key_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    lookup_us.push_back(static_cast<double>(t3 - t2) / 1e3);
    render_us.push_back(static_cast<double>(t4 - t3) / 1e3);
    probe_log.open("probe", Layer::kBench, static_cast<std::uint64_t>(i), t0);
    probe_log.interval("service.canonical_key", Layer::kService, i, t0, t1);
    probe_log.interval("term.parse", Layer::kTerm, i, t1, t2);
    probe_log.interval("search.lookup", Layer::kSearch, i, t2, t3);
    probe_log.interval("term.render", Layer::kTerm, i, t3, t4);
    probe_log.close(t4);
  }
  rep.add("service.canonical_key_us", median(key_us));
  rep.add("search.lookup_us", median(lookup_us));
  rep.add("term.render_us", median(render_us));

  // The db and analysis parts of service.consult, on the same text.
  std::vector<double> db_ms, analysis_ms;
  for (int i = 0; i < kProbeSetups; ++i) {
    blog::db::Program program;
    const std::int64_t t0 = now_ns();
    program.consult_string(text);
    const std::int64_t t1 = now_ns();
    const auto analysis = blog::analysis::analyze(program);
    const std::int64_t t2 = now_ns();
    db_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    analysis_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    probe_log.open("probe.consult", Layer::kBench, 0, t0);
    probe_log.interval("db.consult", Layer::kDb, 0, t0, t1);
    probe_log.interval("analysis.analyze", Layer::kAnalysis, 0, t1, t2);
    probe_log.close(t2);
  }
  rep.add("db.consult_ms", median(db_ms));
  rep.add("analysis.analyze_ms", median(analysis_ms));
  svc.reset();
  for (int i = 0; i < kSetupsAfter; ++i) setup();
  rep.add("service.consult_ms", median(consult_ms));
  rep.add("parallel.pool_start_ms", median(start_ms));
  rep.correct = rep.failed == 0;

  std::vector<const SpanLog*> all_logs = {&setup_log, &probe_log};
  all_logs.insert(all_logs.end(), logs.begin(), logs.end());
  if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, all_logs);
  return rep;
}

}  // namespace perfbench
