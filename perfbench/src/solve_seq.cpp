// solve_seq: one caller running Interpreter::solve (best-first, §5 weight
// updates on) for all answers, round-robin over four kinds sized to similar
// solve times. Per-expansion cost in search, term and db is nearly all of
// the time; no scheduler, pool or cache runs.
#include <algorithm>
#include <memory>

#include "blog/analysis/domain.hpp"
#include "blog/engine/interpreter.hpp"
#include "blog/workloads/workloads.hpp"
#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kQueensN = 7;
constexpr int kDagLayers = 7;
constexpr int kDagWidth = 3;
constexpr int kNrevLength = 200;
constexpr int kVariants = 8;  // seeded query variants per kind
constexpr long long kOpsPerCpu = 4;  // solves between moves to the next CPU

struct Kind {
  const char* name;
  std::vector<Case> cases;
};

struct SolveTotals {
  std::uint64_t nodes = 0;
  std::uint64_t unify_attempts = 0;
  std::uint64_t unify_successes = 0;
  std::uint64_t unify_cells = 0;
  std::uint64_t cells_copied = 0;
  std::uint64_t trail_writes = 0;
  std::uint64_t builtin_calls = 0;
  std::size_t max_frontier = 0;
  double solve_s = 0.0;

  void add(const blog::search::SearchStats& s, double seconds) {
    nodes += s.nodes_expanded;
    unify_attempts += s.expand.unify_attempts;
    unify_successes += s.expand.unify_successes;
    unify_cells += s.expand.unify_cells;
    cells_copied += s.expand.cells_copied;
    trail_writes += s.expand.trail_writes;
    builtin_calls += s.expand.builtin_calls;
    max_frontier = std::max(max_frontier, s.max_frontier);
    solve_s += seconds;
  }
};

}  // namespace

Report run_solve_seq(const Args& args) {
  blog::Rng rng(args.seed);
  const Company company(rng, kEmployees, kDepartments);
  const std::string text = company.text() + queens_program({kQueensN}) +
                           blog::workloads::layered_dag(kDagLayers, kDagWidth) +
                           nrev_program();

  std::vector<Kind> kinds = {{"queens", {}}, {"dag", {}}, {"join", {}}, {"nrev", {}}};
  kinds[0].cases.push_back({"queens" + std::to_string(kQueensN) + "(Q)", queens_answers(kQueensN)});
  for (int v = 0; v < kVariants; ++v) {
    kinds[1].cases.push_back(dag_paths(kDagLayers, kDagWidth, static_cast<int>(rng.below(kDagWidth)),
                                       static_cast<int>(rng.below(kDagWidth))));
    kinds[2].cases.push_back(company.selection(static_cast<int>(rng.below(kDepartments)),
                                               static_cast<int>(rng.below(4))));
    kinds[3].cases.push_back(nrev_case(rng, kNrevLength));
  }

  // Library defaults, except a depth cutoff deep enough for nrev's single
  // length²/2-step chain.
  blog::search::SearchOptions opts;
  opts.expander.max_depth = 1u << 20;

  Report rep;
  SpanLog setup_log(0, kKeptSpans);
  std::vector<double> setup_s, consult_ms, analyze_ms;
  auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto ip = std::make_unique<blog::engine::Interpreter>();
    ip->program().consult_string(text);
    const std::int64_t t1 = now_ns();
    blog::analysis::ensure(ip->program());
    const std::int64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    consult_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    analyze_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    setup_log.open("setup", Layer::kBench, 0, t0);
    setup_log.interval("db.consult", Layer::kDb, 0, t0, t1);
    setup_log.interval("analysis.analyze", Layer::kAnalysis, 0, t1, t2);
    setup_log.close(t2);
    return ip;
  };
  std::unique_ptr<blog::engine::Interpreter> ip;
  for (int i = 0; i < kSetupsBefore; ++i) {
    ip.reset();
    ip = setup();
  }

  SpanLog log(1, kKeptSpans);
  LatencyHistogram latency, parse_ns, render_ns;
  std::vector<LatencyHistogram> solve_ns(kinds.size());
  SolveTotals totals;
  std::uint64_t ops_traced = 0, ops_untraced = 0;

  // One solve: parse, solve, render, check. Returns false on a wrong answer.
  auto run_one = [&](const Case& c, std::size_t kind, bool timed, bool traced,
                     bool plant) -> bool {
    const std::int64_t t0 = now_ns();
    const blog::search::Query q = blog::engine::parse_query(c.text);
    const std::int64_t t1 = now_ns();
    const blog::search::SearchResult r = ip->solve(q, opts);
    const std::int64_t t2 = now_ns();
    const Answers got = blog::engine::solution_texts(r);
    const std::int64_t t3 = now_ns();
    const bool ok = r.outcome == blog::search::Outcome::Exhausted && got == c.expected && !plant;
    if (!timed) return ok;
    latency.add(t3 - t0);
    if (traced) {
      const std::int64_t t4 = now_ns();
      log.open("solve", Layer::kBench, kind, t0);
      log.interval("term.parse", Layer::kTerm, kind, t0, t1);
      log.interval("search.solve", Layer::kSearch, kind, t1, t2);
      log.interval("term.render", Layer::kTerm, kind, t2, t3);
      log.close(t4);
      parse_ns.add(t1 - t0);
      solve_ns[kind].add(t2 - t1);
      render_ns.add(t3 - t2);
      totals.add(r.stats, static_cast<double>(t2 - t1) / 1e9);
    }
    return ok;
  };

  // Warm-up: every variant once (fills the weight store, faults in pages).
  for (std::size_t k = 0; k < kinds.size(); ++k)
    for (const Case& c : kinds[k].cases) {
      ++rep.attempted;
      if (!run_one(c, k, false, false, false)) ++rep.failed;
    }

  CpuRotation rotation;
  const std::int64_t start = now_ns();
  const auto window = static_cast<std::int64_t>(args.seconds * 1e9);
  const TraceBlocks blocks(start);
  std::int64_t end = start;
  long long index = 0;
  for (std::size_t k = 0; end - start < window; k = (k + 1) % kinds.size(), ++index) {
    if (index % kOpsPerCpu == 0) rotation.next();
    const Kind& kind = kinds[k];
    const Case& c = kind.cases[rng.below(kind.cases.size())];
    const bool traced = args.trace && blocks.traced(end);
    ++rep.attempted;
    if (!run_one(c, k, true, traced, index == args.plant_wrong)) ++rep.failed;
    ++(traced ? ops_traced : ops_untraced);
    end = now_ns();
  }
  const double window_s = static_cast<double>(end - start) / 1e9;
  rep.correct = rep.failed == 0;
  const double rss_mb = peak_rss_mb();
  ip.reset();
  for (int i = 0; i < kSetupsAfter; ++i) setup();

  if (!args.trace) {
    add_end_to_end(rep, static_cast<double>(ops_untraced) / window_s, latency, rss_mb,
                   median(setup_s));
    return rep;
  }

  rep.add("db.consult_ms", median(consult_ms));
  rep.add("analysis.analyze_ms", median(analyze_ms));
  rep.add("term.parse_us", parse_ns.percentile_ns(0.5) / 1e3);
  for (std::size_t k = 0; k < kinds.size(); ++k)
    rep.add(std::string("search.solve_ms.") + kinds[k].name, solve_ns[k].percentile_ns(0.5) / 1e6);
  rep.add("term.render_ms", render_ns.percentile_ns(0.5) / 1e6);
  const auto per_node = [&](std::uint64_t v) {
    return totals.nodes ? static_cast<double>(v) / static_cast<double>(totals.nodes) : 0.0;
  };
  rep.add("search.nodes_per_s", totals.solve_s > 0 ? totals.nodes / totals.solve_s : 0.0);
  rep.add("search.unify_success_ratio",
          totals.unify_attempts ? static_cast<double>(totals.unify_successes) /
                                      static_cast<double>(totals.unify_attempts)
                                : 0.0);
  rep.add("search.unify_cells_per_node", per_node(totals.unify_cells));
  rep.add("search.cells_copied_per_node", per_node(totals.cells_copied));
  rep.add("search.trail_writes_per_node", per_node(totals.trail_writes));
  rep.add("search.builtin_calls_per_node", per_node(totals.builtin_calls));
  rep.add("search.max_frontier", static_cast<double>(totals.max_frontier));
  const double traced_qps = static_cast<double>(ops_traced) / blocks.time_in(true, end);
  const double untraced_qps = static_cast<double>(ops_untraced) / blocks.time_in(false, end);
  rep.add("trace.overhead", untraced_qps > 0 ? traced_qps / untraced_qps : 0.0);
  add_layer_shares(rep, {&log});
  if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, {&setup_log, &log});
  return rep;
}

}  // namespace perfbench
