// Machine-readable perf tracking: runs the micro/index/analysis/spill/
// numa/serving/executor headline workloads and emits BENCH_micro.json /
// BENCH_index.json / BENCH_analysis.json / BENCH_spill.json /
// BENCH_numa.json / BENCH_service.json / BENCH_executor.json /
// BENCH_andor.json (nodes/sec, cells_copied per expansion, trail writes
// per expansion, copy-on-steal traffic, claim-wait latency, queries/sec,
// cache hit rate, persistent-pool qps +
// tail latency, and unified AND/OR scheduler speedup + join cost), so the
// perf trajectory of the engine is recorded change over change. Every
// file carries a "host" record (NUMA node count, CPUs per node, CPU model)
// so baselines compared across heterogeneous machines stay interpretable.
// CI's perf-gate job compares this output against bench/baselines/ with
// tools/bench_compare.py.
//
//   ./bench_json [output-dir]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "blog/andp/exec.hpp"
#include "blog/engine/interpreter.hpp"
#include "blog/obs/trace.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/parallel/topology.hpp"
#include "blog/service/service.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The host record stamped into every BENCH_*.json. bench_compare.py
/// warns (instead of gating) when baseline and current host disagree.
void write_host(std::ofstream& out) {
  const parallel::Topology& topo = parallel::Topology::system();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned nodes = topo.node_count();
  std::string model = parallel::cpu_model_name();
  for (char& c : model)
    if (c == '"' || c == '\\') c = ' ';  // keep the JSON well-formed
  // One entry per node: asymmetric layouts (offlined cores, CXL nodes)
  // must not masquerade as symmetric ones in cross-host comparisons.
  out << "  \"host\": {\"numa_nodes\": " << nodes << ", \"cpus_per_node\": [";
  if (topo.nodes().empty()) {
    out << hw;  // single-node fallback: all CPUs on the one node
  } else {
    for (std::size_t i = 0; i < topo.nodes().size(); ++i)
      out << (i > 0 ? ", " : "") << topo.nodes()[i].cpus.size();
  }
  out << "], \"hardware_concurrency\": " << hw << ", \"cpu_model\": \""
      << model << "\"},\n";
}

struct Entry {
  std::string name;
  std::size_t nodes = 0;
  std::size_t cells_copied = 0;
  std::size_t solutions = 0;
  double secs = 0.0;
  // Head-unification work (sequential entries): attempts made and cells
  // visited; the compile layer's headline is how far these collapse.
  bool has_unify = false;
  std::size_t unify_attempts = 0;
  std::size_t unify_cells = 0;
  // Query batches (index entries): lookups issued in the timed loop.
  std::size_t queries = 0;
  // Trail traffic (analysis entries): cumulative Trail::push calls.
  bool has_trail = false;
  std::uint64_t trail_writes = 0;
  // Scheduler and copy-on-steal traffic (parallel entries only).
  bool has_sched = false;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t steals = 0;
  std::uint64_t handles_published = 0;
  std::uint64_t handles_reclaimed = 0;
  std::uint64_t handles_granted = 0;
  std::uint64_t handles_migrated = 0;
  // Claim-wait traffic (numa entries only).
  bool has_numa = false;
  std::uint64_t claim_wait_spins = 0;
  std::uint64_t claim_wait_us = 0;

  [[nodiscard]] double nodes_per_sec() const {
    return secs > 0.0 ? static_cast<double>(nodes) / secs : 0.0;
  }
  [[nodiscard]] double cells_per_expansion() const {
    return nodes > 0 ? static_cast<double>(cells_copied) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
  [[nodiscard]] double unify_cells_per_expansion() const {
    return nodes > 0 ? static_cast<double>(unify_cells) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
  [[nodiscard]] double queries_per_sec() const {
    return secs > 0.0 ? static_cast<double>(queries) / secs : 0.0;
  }
  [[nodiscard]] double trail_writes_per_expansion() const {
    return nodes > 0 ? static_cast<double>(trail_writes) /
                           static_cast<double>(nodes)
                     : 0.0;
  }
};

void write_json(const std::string& path, const std::vector<Entry>& entries,
                const std::vector<std::pair<std::string, double>>& summary = {}) {
  std::ofstream out(path);
  out << "{\n";
  write_host(out);
  for (const auto& [k, v] : summary) out << "  \"" << k << "\": " << v << ",\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "  \"" << e.name << "\": {"
        << "\"nodes\": " << e.nodes << ", \"solutions\": " << e.solutions
        << ", \"seconds\": " << e.secs
        << ", \"nodes_per_sec\": " << e.nodes_per_sec()
        << ", \"cells_copied\": " << e.cells_copied
        << ", \"cells_copied_per_expansion\": " << e.cells_per_expansion();
    if (e.has_unify)
      out << ", \"unify_attempts\": " << e.unify_attempts
          << ", \"unify_cells\": " << e.unify_cells
          << ", \"unify_cells_per_expansion\": " << e.unify_cells_per_expansion();
    if (e.queries > 0)
      out << ", \"queries\": " << e.queries
          << ", \"queries_per_sec\": " << e.queries_per_sec();
    if (e.has_trail)
      out << ", \"trail_writes\": " << e.trail_writes
          << ", \"trail_writes_per_expansion\": "
          << e.trail_writes_per_expansion();
    if (e.has_sched)
      out << ", \"lock_acquisitions\": " << e.lock_acquisitions
          << ", \"steals\": " << e.steals
          << ", \"handles_published\": " << e.handles_published
          << ", \"handles_reclaimed\": " << e.handles_reclaimed
          << ", \"handles_granted\": " << e.handles_granted
          << ", \"handles_migrated\": " << e.handles_migrated;
    if (e.has_numa)
      out << ", \"claim_wait_spins\": " << e.claim_wait_spins
          << ", \"claim_wait_us\": " << e.claim_wait_us;
    out << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

Entry run_sequential(const std::string& name, const std::string& program,
                     const std::string& query, search::Strategy strategy) {
  engine::Interpreter ip;
  ip.consult_string(program);
  search::SearchOptions o;
  o.strategy = strategy;
  o.update_weights = false;
  const auto t0 = Clock::now();
  const auto r = ip.solve(query, o);
  Entry e;
  e.name = name;
  e.secs = seconds_since(t0);
  e.nodes = r.stats.nodes_expanded;
  e.cells_copied = r.stats.expand.cells_copied;
  e.solutions = r.solutions.size();
  e.has_unify = true;
  e.unify_attempts = r.stats.expand.unify_attempts;
  e.unify_cells = r.stats.expand.unify_cells;
  return e;
}

// ------------------------------------------------------------- index bench --
// The compile-layer headline: ground point lookups into a wide fact base,
// run with the hot path fully off (linear scan + import-then-unify), with
// the hash index alone, and with index + head bytecode. Same query batch,
// same answers; only the candidate set size and the rejection machinery
// change.

Entry run_lookup_batch(const std::string& name, const std::string& program,
                       int employees, int lookups, bool indexing,
                       bool bytecode) {
  engine::Interpreter ip;
  ip.consult_string(program);
  search::SearchOptions o;
  o.strategy = search::Strategy::DepthFirst;
  o.update_weights = false;
  o.expander.first_arg_indexing = indexing;
  o.expander.head_bytecode = bytecode;
  Entry e;
  e.name = name;
  e.has_unify = true;
  e.queries = static_cast<std::size_t>(lookups);
  const auto t0 = Clock::now();
  for (int i = 0; i < lookups; ++i) {
    // Stride coprime with the table size: touches employees all over the
    // fact list so the scan cost is the average, not the best case.
    const auto r =
        ip.solve(workloads::deductive_db_lookup((i * 7919) % employees), o);
    e.nodes += r.stats.nodes_expanded;
    e.cells_copied += r.stats.expand.cells_copied;
    e.unify_attempts += r.stats.expand.unify_attempts;
    e.unify_cells += r.stats.expand.unify_cells;
    e.solutions += r.solutions.size();
  }
  e.secs = seconds_since(t0);
  return e;
}

Entry run_parallel(const std::string& name, const std::string& program,
                   const std::string& query, unsigned workers,
                   std::size_t max_nodes, std::size_t local_capacity,
                   bool adaptive) {
  engine::Interpreter ip;
  ip.consult_string(program);
  parallel::ParallelOptions po;
  po.workers = workers;
  po.update_weights = false;
  po.limits.max_nodes = max_nodes;
  po.local_capacity = local_capacity;
  po.adaptive_capacity = adaptive;
  parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  // Untimed warm-up: repopulates the pages the previous entry's teardown
  // returned to the OS, so the timed run measures the scheduler rather
  // than first-touch page faults.
  (void)pe.solve(ip.parse_query(query));
  const auto t0 = Clock::now();
  const auto r = pe.solve(ip.parse_query(query));
  Entry e;
  e.name = name;
  e.secs = seconds_since(t0);
  e.nodes = r.nodes_expanded;
  for (const auto& w : r.workers) {
    e.cells_copied += w.cells_copied;
    e.handles_published += w.handles_published;
    e.handles_reclaimed += w.handles_reclaimed;
    e.handles_granted += w.handles_granted;
    e.handles_migrated += w.handles_migrated;
  }
  e.solutions = r.solutions.size();
  e.has_sched = true;
  e.lock_acquisitions = r.network.lock_acquisitions;
  e.steals = r.network.steals;
  e.claim_wait_spins = r.network.claim_wait_spins;
  e.claim_wait_us = r.network.claim_wait_us;
  return e;
}

// ----------------------------------------------------------------- service --
// Repeated-query mix over the workload programs: `clients` threads each
// issue `kRequestsPerClient` queries drawn from a small pool (so the repeat
// rate is high), against one shared QueryService. The serial-cold baseline
// solves the identical request multiset one by one on a bare Interpreter —
// no answer cache, no concurrency.

constexpr int kRequestsPerClient = 64;

std::string service_program() {
  return workloads::figure1_family() + workloads::layered_dag(5, 3);
}

const std::vector<std::string>& query_pool() {
  static const std::vector<std::string> pool = {
      "path(n0_0,Z,P)", "path(n0_1,Z,P)", "path(n0_2,Z,P)", "path(n1_0,Z,P)",
      "path(n1_1,Z,P)", "gf(sam,G)",      "gf(dan,G)",      "gf(X,Z)",
  };
  return pool;
}

/// Deterministic request mix for one client: index into the pool.
std::size_t pick(int client, int i) {
  return (static_cast<std::size_t>(client) * 31u +
          static_cast<std::size_t>(i) * 7u) %
         query_pool().size();
}

struct ServiceEntry {
  std::string name;
  unsigned clients = 0;
  std::size_t requests = 0;
  double secs = 0.0;
  double cache_hit_rate = 0.0;
  double repeat_rate = 0.0;
  double speedup_vs_serial_cold = 0.0;
  bool answers_match_cold = true;
  // Per-query wall latency from the service.latency_ms histogram
  // (interpolated percentiles; bench_compare.py gates these lower-better).
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;

  [[nodiscard]] double qps() const {
    return secs > 0.0 ? static_cast<double>(requests) / secs : 0.0;
  }
};

double run_serial_cold(unsigned clients) {
  engine::Interpreter ip;
  ip.consult_string(service_program());
  search::SearchOptions o;
  o.update_weights = false;
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients; ++c)
    for (int i = 0; i < kRequestsPerClient; ++i)
      ip.solve(query_pool()[pick(static_cast<int>(c), i)], o);
  return seconds_since(t0);
}

ServiceEntry run_service(unsigned clients, double serial_cold_qps) {
  service::ServiceOptions so;
  so.max_concurrent_queries = clients;
  so.update_weights = false;
  service::QueryService svc(so);
  svc.consult(service_program());

  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&svc, c] {
      for (int i = 0; i < kRequestsPerClient; ++i)
        svc.query(query_pool()[pick(static_cast<int>(c), i)]);
    });
  }
  for (auto& t : threads) t.join();

  ServiceEntry e;
  e.name = "service_c" + std::to_string(clients);
  e.clients = clients;
  e.requests = static_cast<std::size_t>(clients) * kRequestsPerClient;
  e.secs = seconds_since(t0);
  const auto stats = svc.stats();
  e.cache_hit_rate = static_cast<double>(stats.cache_hits) /
                     static_cast<double>(e.requests);
  e.latency_p50_ms = stats.latency_p50_ms;
  e.latency_p95_ms = stats.latency_p95_ms;
  e.latency_p99_ms = stats.latency_p99_ms;
  e.latency_mean_ms = stats.latency_mean_ms;
  // Every request beyond a query's first occurrence is a repeat.
  std::vector<bool> seen(query_pool().size(), false);
  std::size_t repeats = 0;
  for (unsigned c = 0; c < clients; ++c)
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const std::size_t q = pick(static_cast<int>(c), i);
      if (seen[q]) ++repeats;
      seen[q] = true;
    }
  e.repeat_rate = static_cast<double>(repeats) / static_cast<double>(e.requests);
  e.speedup_vs_serial_cold = serial_cold_qps > 0.0 ? e.qps() / serial_cold_qps : 0.0;

  // Cached answers must be byte-identical to a cold run's solution_texts.
  engine::Interpreter cold;
  cold.consult_string(service_program());
  for (const auto& q : query_pool()) {
    const auto warm = svc.query(q);
    if (!warm.from_cache ||
        warm.answers !=
            engine::solution_texts(cold.solve(q, {.update_weights = false})))
      e.answers_match_cold = false;
  }
  return e;
}

/// `serial_cold_qps` > 0 adds the serial-cold baseline row.
void write_service_json(const std::string& path,
                        const std::vector<ServiceEntry>& entries,
                        double serial_cold_qps,
                        const std::vector<std::pair<std::string, double>>&
                            summary = {}) {
  std::ofstream out(path);
  out << "{\n";
  write_host(out);
  for (const auto& [k, v] : summary) out << "  \"" << k << "\": " << v << ",\n";
  if (serial_cold_qps > 0.0)
    out << "  \"serial_cold\": {\"queries_per_sec\": " << serial_cold_qps
        << "},\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ServiceEntry& e = entries[i];
    out << "  \"" << e.name << "\": {"
        << "\"clients\": " << e.clients << ", \"requests\": " << e.requests
        << ", \"seconds\": " << e.secs
        << ", \"queries_per_sec\": " << e.qps()
        << ", \"cache_hit_rate\": " << e.cache_hit_rate
        << ", \"repeat_rate\": " << e.repeat_rate
        << ", \"speedup_vs_serial_cold\": " << e.speedup_vs_serial_cold
        << ", \"latency_p50_ms\": " << e.latency_p50_ms
        << ", \"latency_p95_ms\": " << e.latency_p95_ms
        << ", \"latency_p99_ms\": " << e.latency_p99_ms
        << ", \"latency_mean_ms\": " << e.latency_mean_ms
        << ", \"answers_match_cold\": "
        << (e.answers_match_cold ? "true" : "false") << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------- executor --
// The persistent-pool headline: a 16-client mixed storm (queries drawn
// from a short pool, all parallel requests, cache OFF so every request
// actually searches) served by the executor — workers created and pinned
// once, each query an enqueued job. bench_compare gates its
// queries_per_sec and latency percentiles against the committed baseline.

/// Short queries: per-request work is tens of microseconds, so the fixed
/// per-query cost (parse, admission, enqueue, hand-off, render) is the
/// measured quantity rather than search time.
const std::vector<std::string>& storm_pool() {
  static const std::vector<std::string> pool = {
      "gf(sam,G)", "gf(dan,G)", "gf(X,Z)", "f(X,Y)",
  };
  return pool;
}

ServiceEntry run_executor_storm(const std::string& name, unsigned clients) {
  service::ServiceOptions so;
  so.cache_enabled = false;  // measure execution, not the answer cache
  so.update_weights = false;
  so.max_concurrent_queries = 8;
  service::QueryService svc(so);
  svc.consult(service_program());

  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto t0 = Clock::now();
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&svc, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        service::QueryRequest req;
        req.text = storm_pool()[(static_cast<std::size_t>(c) * 31u +
                                 static_cast<std::size_t>(i) * 7u) %
                                storm_pool().size()];
        req.workers = 2;
        req.strategy = i % 3 == 0 ? search::Strategy::DepthFirst
                                  : search::Strategy::BestFirst;
        svc.query(req);
      }
    });
  }
  for (auto& t : threads) t.join();

  ServiceEntry e;
  e.name = name;
  e.clients = clients;
  e.requests = static_cast<std::size_t>(clients) * kRequestsPerClient;
  e.secs = seconds_since(t0);
  const auto stats = svc.stats();
  e.latency_p50_ms = stats.latency_p50_ms;
  e.latency_p95_ms = stats.latency_p95_ms;
  e.latency_p99_ms = stats.latency_p99_ms;
  e.latency_mean_ms = stats.latency_mean_ms;
  // Correctness bit: the storm's answers must match a cold interpreter.
  engine::Interpreter cold;
  cold.consult_string(service_program());
  for (const auto& q : storm_pool()) {
    if (svc.query(q).answers !=
        engine::solution_texts(cold.solve(q, {.update_weights = false})))
      e.answers_match_cold = false;
  }
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? std::string(argv[1]) + "/" : "";
  const std::string append =
      "append([],L,L). append([H|T],L,[H|R]) :- append(T,L,R).";
  const std::string dag = workloads::layered_dag(5, 3);

  std::vector<Entry> micro;
  micro.push_back(run_sequential("deep_recursion_dfs", workloads::nat_program(),
                                 workloads::deep_nat_query(400),
                                 search::Strategy::DepthFirst));
  micro.push_back(run_sequential(
      "append_all_splits_dfs", append,
      "append(X,Y,[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16])",
      search::Strategy::DepthFirst));
  micro.push_back(run_sequential("dag_paths_bestfirst", dag, "path(n0_0,Z,P)",
                                 search::Strategy::BestFirst));
  micro.push_back(run_sequential("family_bestfirst", workloads::figure1_family(),
                                 "gf(sam,G)", search::Strategy::BestFirst));
  // Flight-recorder overhead: the same bounded deep-countdown expansion
  // loop with tracing off (the default null sink — must stay free) and
  // with a live ring attached. Best-of-3 per arm to shave scheduler
  // jitter; CI gates trace_overhead_ratio (traced / null nodes-per-sec)
  // at >= 0.95, the <= 5% acceptance bar.
  const auto run_traced_deep = [](const char* name, obs::TraceSink* sink) {
    const std::string deep_probe =
        "t(l). t(n(L,R)) :- t(L), t(R). probe :- t(T), fail.";
    engine::Interpreter ip;
    ip.consult_string(deep_probe);
    search::SearchOptions o;
    o.strategy = search::Strategy::DepthFirst;
    o.update_weights = false;
    o.limits.max_nodes = 120'000;
    o.trace = sink;
    Entry best;
    best.name = name;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const auto r = ip.solve("probe", o);
      const double secs = seconds_since(t0);
      if (best.nodes == 0 || secs < best.secs) {
        best.secs = secs;
        best.nodes = r.stats.nodes_expanded;
        best.cells_copied = r.stats.expand.cells_copied;
        best.solutions = r.solutions.size();
      }
    }
    return best;
  };
  obs::TraceSink overhead_sink;
  micro.push_back(run_traced_deep("deep_countdown_trace_null", nullptr));
  micro.push_back(run_traced_deep("deep_countdown_trace_ring",
                                  &overhead_sink));
  std::vector<std::pair<std::string, double>> micro_summary;
  {
    const Entry& null_arm = micro[micro.size() - 2];
    const Entry& ring_arm = micro[micro.size() - 1];
    micro_summary.emplace_back(
        "trace_overhead_ratio",
        null_arm.nodes_per_sec() > 0.0
            ? ring_arm.nodes_per_sec() / null_arm.nodes_per_sec()
            : 0.0);
  }
  write_json(dir + "BENCH_micro.json", micro, micro_summary);

  // Compile-layer headline: ground fact lookups against a 4000-employee
  // deductive database. structural_scan is the engine as it stood before
  // this layer existed (every works_in/2 clause imported and unified per
  // expansion); indexed_structural adds the first-argument hash bucket
  // (one candidate) but still imports it; indexed_bytecode also rejects /
  // accepts heads via the WAM-lite code without importing. CI gates
  // fact_lookup_speedup (scan vs full hot path) at >= 10x and the
  // per-expansion unify-cell collapse at >= 25x.
  constexpr int kEmployees = 4000;
  constexpr int kDepartments = 16;
  constexpr int kLookups = 3000;
  const std::string company =
      workloads::deductive_db(kEmployees, kDepartments);
  std::vector<Entry> index;
  index.push_back(run_lookup_batch("fact_lookup_scan", company, kEmployees,
                                   kLookups, /*indexing=*/false,
                                   /*bytecode=*/false));
  index.push_back(run_lookup_batch("fact_lookup_indexed", company, kEmployees,
                                   kLookups, /*indexing=*/true,
                                   /*bytecode=*/false));
  index.push_back(run_lookup_batch("fact_lookup_bytecode", company, kEmployees,
                                   kLookups, /*indexing=*/true,
                                   /*bytecode=*/true));
  // Rejection cost with the bucket pinned wide open: an unbound first
  // argument defeats the index, so every candidate must be tried — the
  // regime where rejecting via bytecode instead of import-then-unify is
  // the whole difference.
  const auto run_dept_scan = [&company](const char* name, bool bytecode) {
    engine::Interpreter ip;
    ip.consult_string(company);
    search::SearchOptions o;
    o.strategy = search::Strategy::DepthFirst;
    o.update_weights = false;
    o.expander.head_bytecode = bytecode;
    Entry e;
    e.name = name;
    e.has_unify = true;
    // Several rounds over the departments: one sweep finishes in tens of
    // milliseconds, too short for a stable throughput gate.
    constexpr int kRounds = 8;
    e.queries = static_cast<std::size_t>(kRounds) * kDepartments;
    const auto t0 = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
      for (int d = 0; d < kDepartments; ++d) {
        const auto r =
            ip.solve("works_in(E,d" + std::to_string(d) + ")", o);
        e.nodes += r.stats.nodes_expanded;
        e.cells_copied += r.stats.expand.cells_copied;
        e.unify_attempts += r.stats.expand.unify_attempts;
        e.unify_cells += r.stats.expand.unify_cells;
        e.solutions += r.solutions.size();
      }
    }
    e.secs = seconds_since(t0);
    return e;
  };
  index.push_back(run_dept_scan("dept_scan_structural", false));
  index.push_back(run_dept_scan("dept_scan_bytecode", true));
  std::vector<std::pair<std::string, double>> index_summary;
  {
    const Entry& scan = index[0];
    const Entry& idx = index[1];
    const Entry& bc = index[2];
    index_summary.emplace_back("fact_lookup_speedup",
                               bc.secs > 0.0 ? scan.secs / bc.secs : 0.0);
    index_summary.emplace_back("fact_lookup_speedup_index_only",
                               idx.secs > 0.0 ? scan.secs / idx.secs : 0.0);
    // Floor the denominator: a perfect bucket makes one attempt per
    // expansion and the bytecode visits a handful of cells for it.
    index_summary.emplace_back(
        "fact_lookup_unify_cells_reduction",
        scan.unify_cells_per_expansion() /
            std::max(bc.unify_cells_per_expansion(), 1e-3));
    index_summary.emplace_back(
        "fact_lookup_answers_match",
        scan.solutions == idx.solutions && scan.solutions == bc.solutions
            ? 1.0
            : 0.0);
    const Entry& ds = index[3];
    const Entry& db = index[4];
    index_summary.emplace_back("dept_scan_bytecode_speedup",
                               db.secs > 0.0 ? ds.secs / db.secs : 0.0);
  }
  write_json(dir + "BENCH_index.json", index, index_summary);

  // Static-analysis headline: the same ground point lookups with the
  // consult-time analysis on (all-ground fact buckets commit without
  // checkpoint or trail) vs forced off (every match trails its bindings
  // and rolls back). Same answers by construction — answers_match is the
  // hard correctness bit CI gates at 1.0 — and the trail-write collapse
  // (gated >= 5x) is the tentpole's acceptance bar.
  const auto run_analysis_arm = [&company](const char* name, bool analysis_on) {
    engine::Interpreter ip;
    ip.consult_string(company);
    search::SearchOptions o;
    o.strategy = search::Strategy::DepthFirst;
    o.update_weights = false;
    o.expander.static_analysis = analysis_on;
    Entry e;
    e.name = name;
    e.has_trail = true;
    e.queries = kLookups;
    const auto t0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) {
      const auto r =
          ip.solve(workloads::deductive_db_lookup((i * 7919) % kEmployees), o);
      e.nodes += r.stats.nodes_expanded;
      e.cells_copied += r.stats.expand.cells_copied;
      e.trail_writes += r.stats.expand.trail_writes;
      e.solutions += r.solutions.size();
    }
    e.secs = seconds_since(t0);
    return e;
  };
  std::vector<Entry> analysis;
  analysis.push_back(run_analysis_arm("fact_lookup_analysis_off", false));
  analysis.push_back(run_analysis_arm("fact_lookup_analysis_on", true));
  std::vector<std::pair<std::string, double>> analysis_summary;
  {
    const Entry& off = analysis[0];
    const Entry& on = analysis[1];
    analysis_summary.emplace_back(
        "trail_write_reduction",
        static_cast<double>(off.trail_writes) /
            static_cast<double>(std::max<std::uint64_t>(1, on.trail_writes)));
    analysis_summary.emplace_back("answers_match",
                                  off.solutions == on.solutions ? 1.0 : 0.0);
    analysis_summary.emplace_back("analysis_on_speedup",
                                  on.secs > 0.0 ? off.secs / on.secs : 0.0);
  }
  write_json(dir + "BENCH_analysis.json", analysis, analysis_summary);

  // Copy-on-steal on the deep binary-countdown: an unbounded binary-tree
  // recursion whose every path is failed at the end ("..., fail"), so
  // there are no solutions to extract and the run measures pure scheduler
  // + expansion throughput under a fixed node budget. local_capacity 2
  // makes every expansion share (publish a handle); the copy is paid only
  // for chains a thief actually claims, so cells_copied/expansion stays
  // near zero while nodes/sec holds.
  const std::string deep =
      "t(l). t(n(L,R)) :- t(L), t(R). probe :- t(T), fail.";
  constexpr std::size_t kDeepNodes = 60'000;
  constexpr std::size_t kDeepCapacity = 2;
  std::vector<Entry> sp;
  for (const unsigned w : {1u, 2u, 4u, 8u})
    sp.push_back(run_parallel("deep_w" + std::to_string(w) + "_lazy", deep,
                              "probe", w, kDeepNodes, kDeepCapacity,
                              /*adaptive=*/true));
  write_json(dir + "BENCH_spill.json", sp);

  // Claim-wait traffic: the same deep binary-countdown under copy-on-steal
  // with the claim-wait spin on claimed handles. Adaptivity is pinned off
  // so every width sees identical publish pressure.
  std::vector<Entry> numa;
  for (const unsigned w : {2u, 4u, 8u}) {
    Entry e = run_parallel("deep_w" + std::to_string(w) + "_spin", deep,
                           "probe", w, kDeepNodes, kDeepCapacity,
                           /*adaptive=*/false);
    e.has_numa = true;
    numa.push_back(e);
  }
  write_json(dir + "BENCH_numa.json", numa);

  // Serving layer: queries/sec under concurrent clients with the answer
  // cache, against the serial-cold multiset-identical baseline (16 clients'
  // worth of requests).
  const double serial_secs = run_serial_cold(16);
  const double serial_qps = static_cast<double>(16 * kRequestsPerClient) /
                            (serial_secs > 0.0 ? serial_secs : 1e-9);
  std::vector<ServiceEntry> svc;
  for (const unsigned c : {1u, 4u, 16u}) svc.push_back(run_service(c, serial_qps));
  write_service_json(dir + "BENCH_service.json", svc, serial_qps);

  // Persistent pool under the 16-client short-query storm.
  const ServiceEntry pool = run_executor_storm("storm_c16_pool", 16);
  write_service_json(
      dir + "BENCH_executor.json", {pool}, /*serial_cold_qps=*/0.0,
      {{"storm_answers_match", pool.answers_match_cold ? 1.0 : 0.0}});

  // AND/OR on one scheduler (§7 riding §6's machinery): the AND-parallel
  // path at w ∈ {1,2,8} against the sequential engine on a balanced
  // deductive-db conjunction — two shared-variable semi-join groups of
  // equal cost.
  // `and_or_w8_speedup` is the paper's processor-model speedup of the w8
  // unified run over the one-processor sequential cost (Σ group nodes /
  // critical-path nodes); wall-clock threading speedup is NOT gateable —
  // CI hosts may have a single core.
  std::vector<Entry> andor;
  std::vector<std::pair<std::string, double>> andor_summary;
  {
    const std::string prog = workloads::deductive_db(64, 4);
    const std::string query =
        "boss(A,M1), salary_band(A,S1), boss(B,M2), salary_band(B,S2)";
    engine::Interpreter seq;
    seq.consult_string(prog);
    search::SearchOptions so;
    so.update_weights = false;
    {
      const auto t0 = Clock::now();
      const auto r = seq.solve(query, so);
      Entry e;
      e.name = "seq_engine";
      e.secs = seconds_since(t0);
      e.nodes = r.stats.nodes_expanded;
      e.solutions = r.solutions.size();
      andor.push_back(e);
    }
    const auto expected = engine::solution_texts(seq.solve(query, so));

    bool match = true;
    double w8_speedup = 0.0, w8_join_ms = 0.0;
    for (const unsigned workers : {1u, 2u, 8u}) {
      engine::Interpreter ip;
      ip.consult_string(prog);
      andp::AndParallelOptions o;
      o.search.update_weights = false;
      o.workers = workers;
      const auto t0 = Clock::now();
      const auto res = andp::solve_and_parallel(ip, query, o);
      Entry e;
      e.name = "unified_w" + std::to_string(workers);
      e.secs = seconds_since(t0);
      e.nodes = res.sequential_nodes;
      e.solutions = res.solutions.size();
      match &= res.solutions == expected;
      if (workers == 8) {
        w8_speedup = res.and_speedup();
        w8_join_ms = res.join_micros / 1000.0;
      }
      andor.push_back(e);
    }
    andor_summary.emplace_back("answers_match", match ? 1.0 : 0.0);
    andor_summary.emplace_back("and_or_w8_speedup", w8_speedup);
    andor_summary.emplace_back("join_ms_w8", w8_join_ms);
  }
  write_json(dir + "BENCH_andor.json", andor, andor_summary);
  return 0;
}
