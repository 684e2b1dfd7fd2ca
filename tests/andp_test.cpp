#include <gtest/gtest.h>

#include "blog/andp/exec.hpp"
#include "blog/term/reader.hpp"

namespace blog::andp {
namespace {

using engine::Interpreter;

IndependenceAnalysis analyze_text(const char* text) {
  term::Store s;
  const auto rt = term::parse_term(text, s);
  std::vector<term::TermRef> goals;
  // flatten via db helper-like local walk
  std::function<void(term::TermRef)> flat = [&](term::TermRef t) {
    t = s.deref(t);
    if (s.is_struct(t) && s.functor(t) == term::comma_symbol() && s.arity(t) == 2) {
      flat(s.arg(t, 0));
      flat(s.arg(t, 1));
      return;
    }
    goals.push_back(t);
  };
  flat(rt.term);
  return analyze(s, goals);
}

// ----------------------------------------------------------- independence --

TEST(Independence, DisjointGoalsAreIndependent) {
  const auto a = analyze_text("p(X), q(Y), r(Z)");
  EXPECT_EQ(a.groups.size(), 3u);
  EXPECT_TRUE(a.fully_independent());
  EXPECT_EQ(a.shared_vars, 0u);
}

TEST(Independence, SharedVariableMergesGoals) {
  const auto a = analyze_text("p(X), q(X,Y), r(Z)");
  EXPECT_EQ(a.groups.size(), 2u);
  EXPECT_FALSE(a.fully_independent());
  EXPECT_EQ(a.shared_vars, 1u);  // X
  EXPECT_EQ(a.groups[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(a.groups[1], (std::vector<std::size_t>{2}));
}

TEST(Independence, TransitiveSharingMergesChains) {
  const auto a = analyze_text("p(X,Y), q(Y,Z), r(Z,W)");
  EXPECT_EQ(a.groups.size(), 1u);
  EXPECT_EQ(a.shared_vars, 2u);  // Y and Z
}

TEST(Independence, GroundGoalsAreIndependent) {
  const auto a = analyze_text("p(a), q(b), r(1)");
  EXPECT_EQ(a.groups.size(), 3u);
  EXPECT_TRUE(a.fully_independent());
}

TEST(Independence, BindingsRemoveDependencies) {
  // After binding X at run time, p(X) and q(X) no longer share a variable.
  term::Store s;
  const auto rt = term::parse_term("p(X), q(X)", s);
  std::vector<term::TermRef> goals;
  const term::TermRef conj = s.deref(rt.term);
  goals.push_back(s.arg(conj, 0));
  goals.push_back(s.arg(conj, 1));
  EXPECT_EQ(analyze(s, goals).groups.size(), 1u);
  term::Trail tr;
  ASSERT_TRUE(term::unify(s, rt.variables[0].second, s.make_atom("a"), tr));
  EXPECT_EQ(analyze(s, goals).groups.size(), 2u);  // §7's run-time analysis
}

// ------------------------------------------------------------------ joins --

Relation rel(std::vector<Symbol> schema,
             std::vector<std::vector<std::string>> rows) {
  return Relation{std::move(schema), std::move(rows)};
}

TEST(Join, NestedLoopNaturalJoin) {
  const auto r = rel({intern("X"), intern("Y")}, {{"a", "1"}, {"b", "2"}});
  const auto s = rel({intern("Y"), intern("Z")}, {{"1", "p"}, {"1", "q"}, {"3", "r"}});
  JoinStats st;
  const auto j = nested_loop_join(r, s, &st);
  ASSERT_EQ(j.schema.size(), 3u);
  EXPECT_EQ(j.rows.size(), 2u);  // (a,1,p), (a,1,q)
  EXPECT_EQ(st.comparisons, 6u);
}

TEST(Join, HashJoinMatchesNestedLoop) {
  const auto r = rel({intern("X"), intern("Y")},
                     {{"a", "1"}, {"b", "2"}, {"c", "1"}});
  const auto s = rel({intern("Y"), intern("Z")}, {{"1", "p"}, {"2", "q"}});
  const auto nl = nested_loop_join(r, s, nullptr);
  const auto hj = hash_join(r, s, nullptr);
  auto sorted = [](Relation rr) {
    std::sort(rr.rows.begin(), rr.rows.end());
    return rr.rows;
  };
  EXPECT_EQ(sorted(nl), sorted(hj));
}

TEST(Join, CrossProductWhenNoSharedColumns) {
  const auto r = rel({intern("X")}, {{"a"}, {"b"}});
  const auto s = rel({intern("Y")}, {{"1"}, {"2"}, {"3"}});
  const auto j = hash_join(r, s, nullptr);
  EXPECT_EQ(j.rows.size(), 6u);
}

TEST(Join, SemiJoinReduceKeepsMatchingRows) {
  const auto r = rel({intern("X"), intern("Y")},
                     {{"a", "1"}, {"b", "2"}, {"c", "9"}});
  const auto s = rel({intern("Y"), intern("Z")}, {{"1", "p"}, {"2", "q"}});
  const auto red = semi_join_reduce(r, s, nullptr);
  EXPECT_EQ(red.rows.size(), 2u);  // c,9 eliminated
  EXPECT_EQ(red.schema, r.schema);
}

TEST(Join, SemiJoinThenJoinMatchesDirectJoin) {
  const auto r = rel({intern("X"), intern("Y")},
                     {{"a", "1"}, {"b", "2"}, {"c", "9"}, {"d", "1"}});
  const auto s = rel({intern("Y"), intern("Z")},
                     {{"1", "p"}, {"2", "q"}, {"7", "zz"}});
  auto sorted = [](Relation rr) {
    std::sort(rr.rows.begin(), rr.rows.end());
    return rr.rows;
  };
  JoinStats st_direct, st_semi;
  const auto direct = nested_loop_join(r, s, &st_direct);
  const auto semi = semi_join_then_join(r, s, &st_semi);
  EXPECT_EQ(sorted(direct), sorted(semi));
}

TEST(Join, SemiJoinCheaperOnLowSelectivity) {
  // Big relations, tiny join result: semi-join probes ≪ nested-loop
  // comparisons (the §7 efficiency claim).
  Relation r{{intern("X"), intern("Y")}, {}};
  Relation s{{intern("Y"), intern("Z")}, {}};
  for (int i = 0; i < 200; ++i) {
    r.rows.push_back({"x" + std::to_string(i), "k" + std::to_string(i)});
    s.rows.push_back({"k" + std::to_string(i + 195), "z" + std::to_string(i)});
  }
  JoinStats nl, sj;
  (void)nested_loop_join(r, s, &nl);
  (void)semi_join_then_join(r, s, &sj);
  EXPECT_EQ(nl.output_rows, sj.output_rows);
  EXPECT_LT(sj.probes, nl.comparisons / 10);
}

// ------------------------------------------------------------- execution --

constexpr const char* kDb = R"(
p(1). p(2). p(3).
q(a). q(b).
r(1,x). r(2,y).
s(x,u). s(y,v). s(w,k).
)";

TEST(AndExec, IndependentGoalsCrossProduct) {
  Interpreter ip;
  ip.consult_string(kDb);
  const auto res = solve_and_parallel(ip, "p(X), q(Y)");
  EXPECT_EQ(res.groups.size(), 2u);
  EXPECT_EQ(res.solutions.size(), 6u);
  // Matches the sequential engine's answer set.
  Interpreter ip2;
  ip2.consult_string(kDb);
  EXPECT_EQ(res.solutions, engine::solution_texts(ip2.solve("p(X), q(Y)")));
}

TEST(AndExec, QuotedAnswerValuesMatchSequential) {
  // Values that need quotes or a space after `=` render alike on the
  // cross-product and semi-join joins and in the sequential engine.
  constexpr const char* kQuoted =
      "v('Y'). v('hello world'). v(-1). w(a=b). w('it''s'). "
      "u('Y',[1,2]). u(-1,'Z').";
  Interpreter seq;
  seq.consult_string(kQuoted);
  for (const char* query : {"v(X), w(Y)", "v(X), u(X,Z)"}) {
    const auto expect = engine::solution_texts(seq.solve(query));
    ASSERT_FALSE(expect.empty()) << query;
    Interpreter ip;
    ip.consult_string(kQuoted);
    EXPECT_EQ(solve_and_parallel(ip, query).solutions, expect) << query;
  }
}

TEST(AndExec, SharedVariableGroupViaSemiJoin) {
  Interpreter ip;
  ip.consult_string(kDb);
  const auto res = solve_and_parallel(ip, "r(X,Y), s(Y,Z)");
  EXPECT_EQ(res.groups.size(), 1u);
  Interpreter ip2;
  ip2.consult_string(kDb);
  EXPECT_EQ(res.solutions, engine::solution_texts(ip2.solve("r(X,Y), s(Y,Z)")));
  EXPECT_GT(res.join.probes, 0u);  // join path actually used
}

TEST(AndExec, SemiJoinDisabledFallsBackToSequential) {
  Interpreter ip;
  ip.consult_string(kDb);
  AndParallelOptions o;
  o.use_semi_join = false;
  const auto res = solve_and_parallel(ip, "r(X,Y), s(Y,Z)", o);
  Interpreter ip2;
  ip2.consult_string(kDb);
  EXPECT_EQ(res.solutions, engine::solution_texts(ip2.solve("r(X,Y), s(Y,Z)")));
  EXPECT_EQ(res.join.probes, 0u);
}

TEST(AndExec, MixedGroups) {
  Interpreter ip;
  ip.consult_string(kDb);
  const auto res = solve_and_parallel(ip, "p(N), r(X,Y), s(Y,Z)");
  EXPECT_EQ(res.groups.size(), 2u);
  Interpreter ip2;
  ip2.consult_string(kDb);
  EXPECT_EQ(res.solutions,
            engine::solution_texts(ip2.solve("p(N), r(X,Y), s(Y,Z)")));
}

TEST(AndExec, EmptyGroupShortCircuits) {
  Interpreter ip;
  ip.consult_string(kDb);
  const auto res = solve_and_parallel(ip, "p(X), nosuch(Y)");
  EXPECT_TRUE(res.solutions.empty());
}

TEST(AndExec, SpeedupReportedForBalancedGroups) {
  Interpreter ip;
  ip.consult_string(kDb);
  const auto res = solve_and_parallel(ip, "p(X), q(Y)");
  EXPECT_GE(res.and_speedup(), 1.5);  // two similar groups ⇒ ~2x
  EXPECT_EQ(res.sequential_nodes,
            res.groups[0].nodes_expanded + res.groups[1].nodes_expanded);
}

TEST(AndExec, DeterministicProgramsBenefitMost) {
  // §7: AND-parallelism is "very effective in speeding up highly
  // deterministic programs". Deterministic: each goal has 1 solution.
  Interpreter ip;
  ip.consult_string("a(1). b(2). c(3). d(4).");
  const auto res = solve_and_parallel(ip, "a(W), b(X), c(Y), d(Z)");
  EXPECT_EQ(res.solutions.size(), 1u);
  EXPECT_EQ(res.groups.size(), 4u);
  EXPECT_GE(res.and_speedup(), 3.0);
}

TEST(AndExec, RecursiveGroupsStillCorrect) {
  Interpreter ip;
  ip.consult_string(R"(
    append([],L,L).
    append([H|T],L,[H|R]) :- append(T,L,R).
    len([],0).
    len([_|T],N) :- len(T,M), N is M+1.
  )");
  const auto res = solve_and_parallel(ip, "append([1],[2],L), len([a,b],N)");
  ASSERT_EQ(res.solutions.size(), 1u);
  EXPECT_EQ(res.solutions[0], "L=[1,2],N=2");
}

}  // namespace
}  // namespace blog::andp
