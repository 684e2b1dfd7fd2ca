// Micro-benchmarks (google-benchmark): the primitive operations whose costs
// parameterize the machine simulator — unification, clause renaming /
// expansion, state copying, frontier operations, weight-store access and
// parsing. These give the cycle-model inputs real wall-clock meaning.
#include <benchmark/benchmark.h>

#include "blog/engine/interpreter.hpp"
#include "blog/search/frontier.hpp"
#include "blog/term/reader.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;

namespace {

void BM_ParseClause(benchmark::State& state) {
  const std::string text = "gf(X,Z) :- f(X,Y), f(Y,Z).";
  for (auto _ : state) {
    term::Store s;
    term::Reader r(text, s);
    benchmark::DoNotOptimize(r.next());
  }
}
BENCHMARK(BM_ParseClause);

void BM_UnifyFlat(benchmark::State& state) {
  const auto n = state.range(0);
  term::Store s;
  std::vector<term::TermRef> vars, vals;
  for (std::int64_t i = 0; i < n; ++i) {
    vars.push_back(s.make_var());
    vals.push_back(s.make_int(i));
  }
  const term::TermRef a = s.make_struct(intern("t"), vars);
  const term::TermRef b = s.make_struct(intern("t"), vals);
  for (auto _ : state) {
    term::Trail tr;
    benchmark::DoNotOptimize(term::unify(s, a, b, tr));
    tr.undo_to(0, s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnifyFlat)->Arg(4)->Arg(16)->Arg(64);

void BM_UnifyDeepList(benchmark::State& state) {
  const auto n = state.range(0);
  term::Store s;
  std::vector<term::TermRef> items;
  for (std::int64_t i = 0; i < n; ++i) items.push_back(s.make_int(i));
  const term::TermRef ground = s.make_list(items);
  for (auto _ : state) {
    const term::TermRef open = s.make_var();
    term::Trail tr;
    benchmark::DoNotOptimize(term::unify(s, open, ground, tr));
    tr.undo_to(0, s);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UnifyDeepList)->Arg(16)->Arg(128);

void BM_ImportTerm(benchmark::State& state) {
  term::Store src;
  const auto rt = term::parse_term("f(g(X,[1,2,3,4]),h(Y,Z),i(X,Y,Z))", src);
  for (auto _ : state) {
    term::Store dst;
    term::VarMap vmap;
    benchmark::DoNotOptimize(dst.import(src, rt.term, vmap));
  }
}
BENCHMARK(BM_ImportTerm);

void BM_ExpandFamilyGoal(benchmark::State& state) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  search::Expander ex(ip.program(), ip.weights(), &ip.builtins());
  const auto q = ip.parse_query("gf(sam,G)");
  const auto root = ex.make_root(q);
  search::ExpandOutput out;
  for (auto _ : state) {
    search::Node n = root;  // copy: expansion consumes the node
    ex.expand(std::move(n), out);
    benchmark::DoNotOptimize(out.children.size());
  }
}
BENCHMARK(BM_ExpandFamilyGoal);

// The refactor's headline workload: deep recursion run depth-first. The
// in-place engine trails bindings instead of copying per-child stores, so
// cells_copied stays near zero here (only the answer is compacted out).
void BM_DeepRecursionDFS(benchmark::State& state) {
  const std::string q =
      workloads::deep_nat_query(static_cast<int>(state.range(0)));
  std::size_t nodes = 0, copied = 0;
  for (auto _ : state) {
    engine::Interpreter ip;
    ip.consult_string(workloads::nat_program());
    search::SearchOptions o;
    o.strategy = search::Strategy::DepthFirst;
    o.update_weights = false;
    const auto r = ip.solve(q, o);
    nodes += r.stats.nodes_expanded;
    copied += r.stats.expand.cells_copied;
    benchmark::DoNotOptimize(r.solutions.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(nodes));
  state.counters["cells_copied_per_expansion"] =
      nodes > 0 ? static_cast<double>(copied) / static_cast<double>(nodes) : 0;
}
BENCHMARK(BM_DeepRecursionDFS)->Arg(64)->Arg(256);

void BM_SolveFig1AllSolutions(benchmark::State& state) {
  for (auto _ : state) {
    engine::Interpreter ip;
    ip.consult_string(workloads::figure1_family());
    benchmark::DoNotOptimize(ip.solve("gf(sam,G)").solutions.size());
  }
}
BENCHMARK(BM_SolveFig1AllSolutions);

void BM_FrontierBestFirst(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    search::BestFirstFrontier f;
    for (std::int64_t i = 0; i < n; ++i) {
      search::Node nd;
      nd.bound = static_cast<double>((i * 7919) % 104729);
      f.push(std::move(nd));
    }
    while (!f.empty()) benchmark::DoNotOptimize(f.pop().bound);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FrontierBestFirst)->Arg(64)->Arg(1024);

void BM_WeightStoreLookup(benchmark::State& state) {
  db::WeightStore ws;
  for (std::uint32_t i = 0; i < 1000; ++i)
    ws.set_session(db::PointerKey{i % 50, i % 4, i}, static_cast<double>(i));
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.weight(db::PointerKey{i % 50, i % 4, i % 1000}));
    ++i;
  }
}
BENCHMARK(BM_WeightStoreLookup);

void BM_SessionMerge(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    db::WeightStore ws;
    for (std::uint32_t i = 0; i < 1000; ++i)
      ws.set_session(db::PointerKey{i, 0, i}, static_cast<double>(i));
    state.ResumeTiming();
    ws.end_session();
  }
}
BENCHMARK(BM_SessionMerge);

}  // namespace

BENCHMARK_MAIN();
