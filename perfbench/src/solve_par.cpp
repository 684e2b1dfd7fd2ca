// solve_par: one caller submitting 3-slot jobs to a persistent 3-worker
// parallel::Executor, round-robin over OR-parallel queens and layered-DAG
// enumerations (JobRequests) and an AND-parallel conjunction of independent
// groups (andp::solve_and_parallel on the same executor). Same engine as
// solve_seq, but scheduler, steal, copy-on-steal and join costs decide the
// result.
#include <algorithm>
#include <atomic>
#include <memory>

#include "blog/analysis/domain.hpp"
#include "blog/andp/exec.hpp"
#include "blog/engine/interpreter.hpp"
#include "blog/parallel/executor.hpp"
#include "blog/workloads/workloads.hpp"
#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kWorkers = 3;
constexpr unsigned kSlots = 3;
constexpr int kQueensN = 7;
constexpr int kDagLayers = 7;
constexpr int kDagWidth = 3;
constexpr int kAndQueensN = 6;
constexpr int kVariants = 8;
constexpr int kSpeedupRounds = 3;

enum KindId { kQueens, kDag, kAnd, kKinds };

struct ParTotals {
  std::uint64_t jobs = 0;
  std::uint64_t nodes = 0;
  double balance_sum = 0.0;
  std::uint64_t steals = 0, steal_attempts = 0;
  std::uint64_t handles_granted = 0, handles_published = 0;
  std::uint64_t cells_copied = 0, lock_acquisitions = 0, claim_wait_us = 0;

  void add(const blog::parallel::ParallelResult& r) {
    ++jobs;
    nodes += r.nodes_expanded;
    std::uint64_t max_expanded = 0, sum_expanded = 0;
    for (const auto& w : r.workers) {
      max_expanded = std::max(max_expanded, w.expanded);
      sum_expanded += w.expanded;
      handles_granted += w.handles_granted;
      handles_published += w.handles_published;
      cells_copied += w.cells_copied;
    }
    if (sum_expanded > 0)
      balance_sum += static_cast<double>(max_expanded) * static_cast<double>(r.workers.size()) /
                     static_cast<double>(sum_expanded);
    steals += r.network.steals;
    steal_attempts += r.network.steal_attempts;
    lock_acquisitions += r.network.lock_acquisitions;
    claim_wait_us += r.network.claim_wait_us;
  }
};

struct AndTotals {
  std::uint64_t jobs = 0;
  double join_ms = 0.0;
  std::uint64_t forked_items = 0;
  std::uint64_t critical_nodes = 0, sequential_nodes = 0;
};

double ratio(std::uint64_t a, std::uint64_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

}  // namespace

Report run_solve_par(const Args& args) {
  blog::Rng rng(args.seed);
  const Company company(rng, kEmployees, kDepartments);
  const std::string text = company.text() + queens_program({kQueensN, kAndQueensN}) +
                           blog::workloads::layered_dag(kDagLayers, kDagWidth);

  std::vector<Case> cases[kKinds];
  std::vector<int> and_departments;
  cases[kQueens].push_back({"queens" + std::to_string(kQueensN) + "(Q)", queens_answers(kQueensN)});
  for (int v = 0; v < kVariants; ++v) {
    cases[kDag].push_back(dag_paths(kDagLayers, kDagWidth, static_cast<int>(rng.below(kDagWidth)),
                                    static_cast<int>(rng.below(kDagWidth))));
    and_departments.push_back(static_cast<int>(rng.below(kDepartments)));
    cases[kAnd].push_back(members_with_queens(company, and_departments.back(), kAndQueensN));
  }

  Report rep;
  SpanLog setup_log(0, kKeptSpans);
  std::vector<double> setup_s, start_ms, consult_ms, analyze_ms;
  struct Stack {
    std::unique_ptr<blog::engine::Interpreter> ip;
    std::unique_ptr<blog::parallel::Executor> ex;  // destroyed first: jobs use ip
  };
  auto setup = [&] {
    Stack st;
    const std::int64_t t0 = now_ns();
    blog::parallel::ExecutorOptions eo;
    eo.workers = kWorkers;
    st.ex = std::make_unique<blog::parallel::Executor>(eo);
    const std::int64_t t1 = now_ns();
    st.ip = std::make_unique<blog::engine::Interpreter>();
    st.ip->program().consult_string(text);
    const std::int64_t t2 = now_ns();
    blog::analysis::ensure(st.ip->program());
    const std::int64_t t3 = now_ns();
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    start_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    consult_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    analyze_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    setup_log.open("setup", Layer::kBench, 0, t0);
    setup_log.interval("parallel.pool_start", Layer::kParallel, 0, t0, t1);
    setup_log.interval("db.consult", Layer::kDb, 0, t1, t2);
    setup_log.interval("analysis.analyze", Layer::kAnalysis, 0, t2, t3);
    setup_log.close(t3);
    return st;
  };
  Stack stack;
  const auto release = [&stack] {
    stack.ex.reset();
    stack.ip.reset();
  };
  for (int i = 0; i < kSetupsBefore; ++i) {
    release();
    stack = setup();
  }
  blog::engine::Interpreter* const ip = stack.ip.get();
  blog::parallel::Executor* const ex = stack.ex.get();

  SpanLog log(1, kKeptSpans);
  LatencyHistogram latency, submit_ns, wake_ns, and_ns;
  LatencyHistogram run_ns[2];
  ParTotals par;
  AndTotals andp;
  std::uint64_t ops_traced = 0, ops_untraced = 0;
  std::atomic<std::int64_t> completed_ns{0};

  // One job at `slots` (AND: `slots` workers). Returns false on a wrong
  // answer, a non-exhausted outcome or a refused submit.
  auto run_one = [&](const Case& c, int kind, unsigned slots, bool timed, bool traced,
                     bool plant, std::uint64_t id) -> bool {
    const std::int64_t t0 = now_ns();
    if (kind == kAnd) {
      blog::andp::AndParallelOptions ao;
      ao.executor = ex;
      ao.workers = slots;
      const blog::andp::AndParallelResult r = blog::andp::solve_and_parallel(*ip, c.text, ao);
      const std::int64_t t1 = now_ns();
      const bool ok =
          r.outcome == blog::search::Outcome::Exhausted && r.solutions == c.expected && !plant;
      if (!timed) return ok;
      latency.add(t1 - t0);
      if (traced) {
        log.open("job", Layer::kBench, id, t0);
        log.interval("andp.solve", Layer::kAndp, id, t0, t1);
        log.close(now_ns());
        and_ns.add(t1 - t0);
        ++andp.jobs;
        andp.join_ms += r.join_micros / 1e3;
        andp.forked_items += r.forked_items;
        andp.critical_nodes += r.critical_path_nodes;
        andp.sequential_nodes += r.sequential_nodes;
      }
      return ok;
    }
    blog::parallel::JobRequest jr;
    jr.program = &ip->program();
    jr.weights = &ip->weights();
    jr.builtins = &ip->builtins();
    jr.query = blog::engine::parse_query(c.text);
    jr.slots = slots;
    if (traced) {
      jr.on_complete = [&completed_ns](const blog::parallel::ParallelResult&) {
        completed_ns.store(now_ns(), std::memory_order_release);
      };
    }
    const std::int64_t t1 = now_ns();
    const blog::parallel::JobTicket ticket = ex->submit(std::move(jr));
    const std::int64_t t2 = now_ns();
    const blog::parallel::ParallelResult& r = ticket.wait();
    const std::int64_t t3 = now_ns();
    Answers texts;
    texts.reserve(r.solutions.size());
    for (const auto& s : r.solutions) texts.push_back(s.text);
    texts = blog::engine::solution_texts(std::move(texts));
    const std::int64_t t4 = now_ns();
    const bool ok = ticket.valid() && r.outcome == blog::search::Outcome::Exhausted &&
                    texts == c.expected && !plant;
    if (!timed) return ok;
    latency.add(t4 - t0);
    if (traced) {
      const std::int64_t tc = std::clamp(completed_ns.load(std::memory_order_acquire), t2, t3);
      log.open("job", Layer::kBench, id, t0);
      log.interval("term.parse", Layer::kTerm, id, t0, t1);
      log.interval("parallel.submit", Layer::kParallel, id, t1, t2);
      log.interval("parallel.run", Layer::kParallel, id, t2, tc);
      log.interval("parallel.wake", Layer::kParallel, id, tc, t3);
      log.interval("term.render", Layer::kTerm, id, t3, t4);
      log.close(now_ns());
      submit_ns.add(t2 - t1);
      run_ns[kind].add(tc - t2);
      wake_ns.add(t3 - tc);
      par.add(r);
    }
    return ok;
  };

  // The sequential engine must return every oracle set: directly for the
  // OR-parallel kinds, as the cross product of its answers to the two
  // independent goals for the AND kind (solving the conjunction as written
  // would re-run the search goal once per employee).
  const auto sequential = [&](const std::string& q) {
    return blog::engine::solution_texts(ip->solve(q));
  };
  for (int k : {kQueens, kDag})
    for (const Case& c : cases[k]) {
      ++rep.attempted;
      if (sequential(c.text) != c.expected) ++rep.failed;
    }
  const Answers queens_texts = sequential("queens" + std::to_string(kAndQueensN) + "(Q)");
  for (std::size_t v = 0; v < cases[kAnd].size(); ++v) {
    Answers cross;
    for (const std::string& a :
         sequential("works_in(A,d" + std::to_string(and_departments[v]) + ")"))
      for (const std::string& q : queens_texts) cross.push_back(a + "," + q);
    ++rep.attempted;
    if (canonical(std::move(cross)) != cases[kAnd][v].expected) ++rep.failed;
  }

  // Warm-up: every variant once.
  for (int k = 0; k < kKinds; ++k)
    for (const Case& c : cases[k]) {
      ++rep.attempted;
      if (!run_one(c, k, kSlots, false, false, false, 0)) ++rep.failed;
    }

  const std::int64_t start = now_ns();
  const auto window = static_cast<std::int64_t>(args.seconds * 1e9);
  const TraceBlocks blocks(start);
  std::int64_t end = start;
  long long index = 0;
  for (int k = 0; end - start < window; k = (k + 1) % kKinds, ++index) {
    const Case& c = cases[k][rng.below(cases[k].size())];
    const bool traced = args.trace && blocks.traced(end);
    ++rep.attempted;
    if (!run_one(c, k, kSlots, true, traced, index == args.plant_wrong,
                 static_cast<std::uint64_t>(index)))
      ++rep.failed;
    ++(traced ? ops_traced : ops_untraced);
    end = now_ns();
  }
  const double window_s = static_cast<double>(end - start) / 1e9;
  const double rss_mb = peak_rss_mb();

  // The same jobs at 1 and at 3 slots, interleaved (order alternating per
  // round) so host drift cancels out of the ratio.
  double one_slot_s = 0.0, three_slot_s = 0.0;
  for (int round = 0; args.trace && round < kSpeedupRounds; ++round) {
    for (int k = 0; k < kKinds; ++k) {
      const Case& c = cases[k][rng.below(cases[k].size())];
      for (int j = 0; j < 2; ++j) {
        const unsigned slots = (j == 0) == (round % 2 == 0) ? 1 : kSlots;
        const std::int64_t t0 = now_ns();
        ++rep.attempted;
        if (!run_one(c, k, slots, false, false, false, 0)) ++rep.failed;
        (slots == 1 ? one_slot_s : three_slot_s) += static_cast<double>(now_ns() - t0) / 1e9;
      }
    }
  }
  rep.correct = rep.failed == 0;
  release();
  for (int i = 0; i < kSetupsAfter; ++i) setup();

  if (!args.trace) {
    add_end_to_end(rep, static_cast<double>(ops_untraced) / window_s, latency, rss_mb,
                   median(setup_s));
    return rep;
  }
  rep.add("db.consult_ms", median(consult_ms));
  rep.add("analysis.analyze_ms", median(analyze_ms));
  rep.add("parallel.pool_start_ms", median(start_ms));
  rep.add("parallel.submit_us", submit_ns.percentile_ns(0.5) / 1e3);
  rep.add("parallel.run_ms.queens", run_ns[kQueens].percentile_ns(0.5) / 1e6);
  rep.add("parallel.run_ms.dag", run_ns[kDag].percentile_ns(0.5) / 1e6);
  rep.add("parallel.wake_us", wake_ns.percentile_ns(0.5) / 1e3);
  rep.add("parallel.speedup_3v1", three_slot_s > 0 ? one_slot_s / three_slot_s : 0.0);
  rep.add("parallel.worker_balance", par.jobs ? par.balance_sum / static_cast<double>(par.jobs) : 0.0);
  rep.add("parallel.steal_success_ratio", ratio(par.steals, par.steal_attempts));
  rep.add("parallel.handle_grant_ratio", ratio(par.handles_granted, par.handles_published));
  rep.add("parallel.cells_copied_per_node", ratio(par.cells_copied, par.nodes));
  rep.add("parallel.claim_wait_us", ratio(par.claim_wait_us, par.jobs));
  rep.add("parallel.lock_acquisitions_per_node", ratio(par.lock_acquisitions, par.nodes));
  rep.add("andp.solve_ms", and_ns.percentile_ns(0.5) / 1e6);
  rep.add("andp.join_ms", andp.jobs ? andp.join_ms / static_cast<double>(andp.jobs) : 0.0);
  rep.add("andp.forked_items", ratio(andp.forked_items, andp.jobs));
  rep.add("andp.critical_path_share", ratio(andp.critical_nodes, andp.sequential_nodes));
  const double traced_qps = static_cast<double>(ops_traced) / blocks.time_in(true, end);
  const double untraced_qps = static_cast<double>(ops_untraced) / blocks.time_in(false, end);
  rep.add("trace.overhead", untraced_qps > 0 ? traced_qps / untraced_qps : 0.0);
  add_layer_shares(rep, {&log});
  if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, {&setup_log, &log});
  return rep;
}

}  // namespace perfbench
