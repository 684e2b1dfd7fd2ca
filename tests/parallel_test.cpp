#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "blog/parallel/engine.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog::parallel {
namespace {

using engine::Interpreter;

constexpr const char* kFamily = R"(
gf(X,Z) :- f(X,Y), f(Y,Z).
gf(X,Z) :- f(X,Y), m(Y,Z).
f(curt,elain).  f(sam,larry).
f(dan,pat).     f(larry,den).
f(pat,john).    f(larry,doug).
m(elain,john).  m(marian,elain).
m(peg,den).     m(peg,doug).
)";

// A wider non-deterministic workload: all paths in a layered DAG.
std::string layered_dag(int layers, int width) {
  std::string s;
  for (int l = 0; l < layers; ++l) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        s += "edge(n" + std::to_string(l) + "_" + std::to_string(a) + ",n" +
             std::to_string(l + 1) + "_" + std::to_string(b) + ").\n";
      }
    }
  }
  s += "path(X,X,[X]).\n";
  s += "path(X,Z,[X|P]) :- edge(X,Y), path(Y,Z,P).\n";
  return s;
}

std::vector<std::string> texts(const ParallelResult& r) {
  std::vector<std::string> out;
  for (const auto& s : r.solutions) out.push_back(s.text);
  std::sort(out.begin(), out.end());
  return out;
}

class ParallelSolve : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelSolve, FamilySolutionsMatchSequential) {
  Interpreter ip;
  ip.consult_string(kFamily);
  ParallelOptions o;
  o.workers = GetParam();
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto r = pe.solve(ip.parse_query("gf(sam,G)"));
  EXPECT_EQ(texts(r), (std::vector<std::string>{"G=den", "G=doug"}));
  EXPECT_TRUE(r.exhausted);
}

TEST_P(ParallelSolve, DagPathsMatchSequential) {
  Interpreter ip;
  ip.consult_string(layered_dag(3, 3));
  auto seq = ip.solve("path(n0_0,Z,P)", {.update_weights = false});
  const auto expected = engine::solution_texts(seq);

  Interpreter ip2;
  ip2.consult_string(layered_dag(3, 3));
  ParallelOptions o;
  o.workers = GetParam();
  o.update_weights = false;
  ParallelEngine pe(ip2.program(), ip2.weights(), &ip2.builtins(), o);
  auto r = pe.solve(ip2.parse_query("path(n0_0,Z,P)"));
  EXPECT_EQ(texts(r), expected);
  // 1 + 3 + 9 + 27 path solutions (to every reachable node incl. start).
  EXPECT_EQ(r.solutions.size(), 40u);
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelSolve, ::testing::Values(1u, 2u, 4u, 8u));

TEST(Parallel, WorkersAllParticipateOnWideTree) {
  Interpreter ip;
  ip.consult_string(layered_dag(4, 4));
  ParallelOptions o;
  o.workers = 4;
  o.local_capacity = 2;  // force sharing so the network distributes work
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_GT(r.nodes_expanded, 100u);
  // Scheduling is timing-dependent (on a single-core host one worker can
  // drain the tree before the others wake), but the network must have
  // distributed work and the total must add up. Under the copy-on-steal
  // default, sharing shows up as published handles; materialized spills
  // only appear on migrate-outs, which a run may not need.
  std::uint64_t total = 0, shared = 0;
  for (const auto& w : r.workers) {
    total += w.expanded;
    shared += w.spills + w.handles_published;
  }
  EXPECT_EQ(total, r.nodes_expanded);
  EXPECT_GT(shared, 0u);
  EXPECT_GT(r.network.pushes, 0u);
}

TEST(Parallel, MaxSolutionsStopsEarly) {
  Interpreter ip;
  ip.consult_string(layered_dag(3, 3));
  ParallelOptions o;
  o.workers = 4;
  o.limits.max_solutions = 5;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_GE(r.solutions.size(), 5u);
  EXPECT_LE(r.solutions.size(), 5u + o.workers);  // bounded race overshoot
  EXPECT_FALSE(r.exhausted);
}

TEST(Parallel, NodeBudgetStopsRunawaySearch) {
  Interpreter ip;
  ip.consult_string("nat(z). nat(s(X)) :- nat(X).");
  ParallelOptions o;
  o.workers = 2;
  o.limits.max_nodes = 100;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto r = pe.solve(ip.parse_query("nat(X)"));
  EXPECT_LE(r.nodes_expanded, 100u + o.workers);
  EXPECT_FALSE(r.exhausted);
}

TEST(Parallel, FailingQueryTerminates) {
  Interpreter ip;
  ip.consult_string(kFamily);
  ParallelOptions o;
  o.workers = 4;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  auto r = pe.solve(ip.parse_query("gf(john,G)"));
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_TRUE(r.exhausted);
}

TEST(Parallel, WeightUpdatesAreAppliedConcurrently) {
  Interpreter ip;
  ip.consult_string(kFamily);
  ParallelOptions o;
  o.workers = 4;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  (void)pe.solve(ip.parse_query("gf(sam,G)"));
  EXPECT_GT(ip.weights().session_size(), 0u);
}

TEST(Parallel, DThresholdReducesNetworkTraffic) {
  // With a huge D, workers never fetch from the network while they hold
  // local work, so network takes should not exceed the D=0 case.
  auto run = [&](double d) {
    Interpreter ip;
    ip.consult_string(layered_dag(4, 3));
    ParallelOptions o;
    o.workers = 4;
    o.d_threshold = d;
    o.update_weights = false;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
    auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    std::uint64_t net_takes = 0;
    for (const auto& w : r.workers) net_takes += w.network_takes;
    return std::pair{net_takes, r.solutions.size()};
  };
  const auto [takes_d0, sols_d0] = run(0.0);
  const auto [takes_dbig, sols_dbig] = run(1e9);
  EXPECT_EQ(sols_d0, sols_dbig);  // same answers regardless of D
  EXPECT_LE(takes_dbig, takes_d0 + 8);  // traffic can only drop (mod races)
}

TEST(Parallel, SingleWorkerMatchesSequentialNodeCount) {
  // At one worker the solve is the pool's one-slot job, a depth-first
  // SearchEngine solve: the sequential engine's answers, in its order,
  // after its node count.
  const std::pair<std::string, std::string> cases[] = {
      {kFamily, "gf(sam,G)"},
      {workloads::queens(7), "queens7(Qs)"},
      {workloads::layered_dag(7, 3), "path(n0_0,Z,P)"},
  };
  for (const auto& [program, query] : cases) {
    Interpreter ip;
    ip.consult_string(program);
    auto seq = ip.solve(query, {.strategy = search::Strategy::DepthFirst,
                                .update_weights = false});

    Interpreter ip2;
    ip2.consult_string(program);
    ParallelOptions o;
    o.workers = 1;
    o.update_weights = false;
    ParallelEngine pe(ip2.program(), ip2.weights(), &ip2.builtins(), o);
    auto r = pe.solve(ip2.parse_query(query));
    EXPECT_EQ(r.nodes_expanded, seq.stats.nodes_expanded) << query;
    ASSERT_EQ(r.solutions.size(), seq.solutions.size()) << query;
    for (std::size_t i = 0; i < r.solutions.size(); ++i)
      EXPECT_EQ(r.solutions[i].text, seq.solutions[i].text) << query;
  }
}

TEST(Parallel, BackToBackSolvesOnOneEngineMatchTheOracle) {
  // Every solve is a new job on the engine's one pool: nothing carries
  // over from the previous job.
  const std::string program = std::string(kFamily) + layered_dag(3, 3);
  Interpreter oracle;
  oracle.consult_string(program);
  Interpreter ip;
  ip.consult_string(program);
  ParallelOptions o;
  o.workers = 3;
  o.update_weights = false;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  for (const char* query : {"path(n0_0,Z,P)", "gf(X,Z)", "path(n1_2,Z,P)"}) {
    const auto r = pe.solve(ip.parse_query(query));
    EXPECT_EQ(texts(r), engine::solution_texts(
                            oracle.solve(query, {.update_weights = false})))
        << query;
    EXPECT_TRUE(r.exhausted) << query;
  }
}

TEST(Parallel, PresetCancelFlagAnswersNothing) {
  // The caller's flag stops both job shapes, the one-slot solve and the
  // scheduler-backed one, at their first expansion boundary.
  for (const unsigned workers : {1u, 3u}) {
    Interpreter ip;
    ip.consult_string(layered_dag(4, 4));
    std::atomic<bool> cancel{true};
    ParallelOptions o;
    o.workers = workers;
    o.update_weights = false;
    o.cancel = &cancel;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
    const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    EXPECT_EQ(r.outcome, search::Outcome::Cancelled) << "w" << workers;
    EXPECT_TRUE(r.solutions.empty()) << "w" << workers;
    EXPECT_FALSE(r.exhausted) << "w" << workers;
  }
}

TEST(Parallel, ZeroWorkersRunAsOne) {
  // workers = 0 is clamped to 1: the root is searched instead of being
  // reported Exhausted with no answers.
  const auto run = [](unsigned workers) {
    Interpreter ip;
    ip.consult_string(kFamily);
    ParallelOptions o;
    o.workers = workers;
    o.update_weights = false;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
    return pe.solve(ip.parse_query("gf(sam,G)"));
  };
  const auto zero = run(0);
  EXPECT_EQ(texts(zero), texts(run(1)));
  EXPECT_EQ(texts(zero), (std::vector<std::string>{"G=den", "G=doug"}));
  EXPECT_TRUE(zero.exhausted);
  EXPECT_EQ(zero.workers.size(), 1u);
}

}  // namespace
}  // namespace blog::parallel
