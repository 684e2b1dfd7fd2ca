#include <gtest/gtest.h>

#include "blog/engine/builtins.hpp"
#include "blog/engine/interpreter.hpp"
#include "blog/search/engine.hpp"
#include "blog/search/update.hpp"
#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::search {
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

SearchOptions opt(Strategy s) {
  SearchOptions o;
  o.strategy = s;
  return o;
}

// ------------------------------------------------------------ correctness --

TEST(Search, Figure1QuerySolutions) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("gf(sam,G)", opt(Strategy::DepthFirst));
  ASSERT_EQ(r.solutions.size(), 2u);
  // Prolog order: den before doug (clause order of the f facts).
  EXPECT_EQ(r.solutions[0].text, "G=den");
  EXPECT_EQ(r.solutions[1].text, "G=doug");
  EXPECT_TRUE(r.exhausted);
}

TEST(Search, AllStrategiesSameSolutionSet) {
  for (const Strategy s :
       {Strategy::DepthFirst, Strategy::BreadthFirst, Strategy::BestFirst}) {
    Interpreter ip;
    ip.consult_string(kFamily);
    auto r = ip.solve("gf(sam,G)", opt(s));
    EXPECT_EQ(engine::solution_texts(r), (std::vector<std::string>{"G=den", "G=doug"}))
        << strategy_name(s);
  }
}

TEST(Search, GroundQuerySucceedsWithTrueAnswer) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("gf(sam,den)");
  ASSERT_EQ(r.solutions.size(), 1u);
  EXPECT_EQ(r.solutions[0].text, "gf(sam,den)");
}

TEST(Search, CurtIsGrandfatherViaMotherRule) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("gf(curt,G)");
  EXPECT_EQ(engine::solution_texts(r), (std::vector<std::string>{"G=john"}));
}

TEST(Search, FailingQueryHasNoSolutions) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("gf(john,G)");  // john has no children in the database
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.stats.failures, 0u);
}

TEST(Search, UnknownPredicateFailsImmediately) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("zz(a)");
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_EQ(r.stats.failures, 1u);
}

TEST(Search, ConjunctiveQuery) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r = ip.solve("f(sam,Y), f(Y,Z)");
  EXPECT_EQ(engine::solution_texts(r),
            (std::vector<std::string>{"Y=larry,Z=den", "Y=larry,Z=doug"}));
}

TEST(Search, MaxSolutionsStopsEarly) {
  Interpreter ip;
  ip.consult_string(kFamily);
  SearchOptions o = opt(Strategy::DepthFirst);
  o.limits.max_solutions = 1;
  auto r = ip.solve("gf(sam,G)", o);
  EXPECT_EQ(r.solutions.size(), 1u);
  EXPECT_FALSE(r.exhausted);
}

TEST(Search, MaxNodesBudgetRespected) {
  Interpreter ip;
  ip.consult_string("nat(z). nat(s(X)) :- nat(X).");
  SearchOptions o = opt(Strategy::DepthFirst);
  o.limits.max_nodes = 50;
  auto r = ip.solve("nat(X)", o);
  EXPECT_LE(r.stats.nodes_expanded, 50u);
  EXPECT_FALSE(r.exhausted);
}

TEST(Search, DepthLimitCutsInfiniteTree) {
  Interpreter ip;
  ip.consult_string("loop(X) :- loop(X).");
  SearchOptions o = opt(Strategy::DepthFirst);
  o.expander.max_depth = 16;
  auto r = ip.solve("loop(a)", o);
  EXPECT_TRUE(r.exhausted);
  EXPECT_TRUE(r.solutions.empty());
  EXPECT_GT(r.stats.depth_cutoffs, 0u);
}

TEST(Search, AnswerValuesAreQuotedAndReadBack) {
  Interpreter ip;
  ip.consult_string(
      "q('Y'). q('hello world'). q('it''s'). q(-1). q(a=b). q([1,2]). "
      "p('A',b).");
  const std::vector<std::string> texts =
      engine::solution_texts(ip.solve("q(X)"));
  EXPECT_EQ(texts, (std::vector<std::string>{"X= -1", "X='Y'",
                                             "X='hello world'", "X='it''s'",
                                             "X=(a=b)", "X=[1,2]"}));
  // Each text reads back as `X = Value`, and Value writes back the same.
  for (const std::string& text : texts) {
    term::Store s;
    const term::ReadTerm rt = term::parse_term(text, s);
    ASSERT_EQ(rt.variables.size(), 1u) << text;
    EXPECT_EQ(symbol_name(rt.variables[0].first), "X");
    const term::TermRef value = s.arg(s.deref(rt.term), 1);
    EXPECT_EQ("X=" + binding_value_text(s, value), text);
  }
  const auto two = ip.solve("p(X,Y)");
  ASSERT_EQ(two.solutions.size(), 1u);
  EXPECT_EQ(two.solutions[0].text, "X='A',Y=b");
}

TEST(Search, RecursiveListProgram) {
  Interpreter ip;
  ip.consult_string(R"(
    append([],L,L).
    append([H|T],L,[H|R]) :- append(T,L,R).
  )");
  auto r = ip.solve("append(X,Y,[1,2,3])");
  EXPECT_EQ(r.solutions.size(), 4u);  // all splits
}

TEST(Search, MemberGeneratesAll) {
  Interpreter ip;
  ip.consult_string("member(X,[X|_]). member(X,[_|T]) :- member(X,T).");
  auto r = ip.solve("member(M,[a,b,c])");
  EXPECT_EQ(engine::solution_texts(r),
            (std::vector<std::string>{"M=a", "M=b", "M=c"}));
}

TEST(Search, BuiltinArithmeticInBody) {
  Interpreter ip;
  ip.consult_string("double(X,Y) :- Y is X*2.");
  auto r = ip.solve("double(21,Z)");
  ASSERT_EQ(r.solutions.size(), 1u);
  EXPECT_EQ(r.solutions[0].text, "Z=42");
}

TEST(Search, BuiltinComparisonFiltersSolutions) {
  Interpreter ip;
  ip.consult_string("n(1). n(2). n(3). n(4). big(X) :- n(X), X > 2.");
  auto r = ip.solve("big(X)");
  EXPECT_EQ(engine::solution_texts(r), (std::vector<std::string>{"X=3", "X=4"}));
}

// --------------------------------------------------------------- frontier --

TEST(Frontier, BestFirstPopsLowestBound) {
  BestFirstFrontier f;
  for (const double b : {5.0, 1.0, 3.0}) {
    Node n;
    n.bound = b;
    f.push(std::move(n));
  }
  EXPECT_DOUBLE_EQ(f.pop().bound, 1.0);
  EXPECT_DOUBLE_EQ(f.pop().bound, 3.0);
  EXPECT_DOUBLE_EQ(f.pop().bound, 5.0);
}

TEST(Frontier, BestFirstTieBreaksFifo) {
  BestFirstFrontier f;
  for (const std::uint64_t id : {1u, 2u, 3u}) {
    Node n;
    n.bound = 7.0;
    n.id = id;
    f.push(std::move(n));
  }
  EXPECT_EQ(f.pop().id, 1u);
  EXPECT_EQ(f.pop().id, 2u);
  EXPECT_EQ(f.pop().id, 3u);
}

TEST(Frontier, PruneAboveDropsHighBounds) {
  BestFirstFrontier f;
  for (const double b : {1.0, 2.0, 3.0, 4.0}) {
    Node n;
    n.bound = b;
    f.push(std::move(n));
  }
  EXPECT_EQ(f.prune_above(2.5), 2u);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f.min_bound(), 1.0);
}

TEST(Frontier, DepthFirstIsLifo) {
  DepthFirstFrontier f;
  for (const std::uint64_t id : {1u, 2u, 3u}) {
    Node n;
    n.id = id;
    f.push(std::move(n));
  }
  EXPECT_EQ(f.pop().id, 3u);
}

TEST(Frontier, BreadthFirstIsFifo) {
  BreadthFirstFrontier f;
  for (const std::uint64_t id : {1u, 2u, 3u}) {
    Node n;
    n.id = id;
    f.push(std::move(n));
  }
  EXPECT_EQ(f.pop().id, 1u);
}

// ----------------------------------------------------------- weight rules --

class UpdateRules : public ::testing::Test {
protected:
  db::WeightStore ws{{.n = 16, .a = 8}};

  static ChainPtr chain(std::initializer_list<Arc> arcs) {
    ChainPtr c;
    for (const Arc& a : arcs) c = std::make_shared<Chain>(Chain{a, c});
    return c;  // last element of the list is the leaf arc
  }
  Arc arc(std::uint32_t callee, double w) {
    const db::PointerKey key{0, 0, callee};
    return Arc{key, w, &ws.cell(key)};
  }
};

TEST_F(UpdateRules, FailureSetsNearestLeafUnknownToInfinity) {
  auto c = chain({arc(1, 17), arc(2, 17)});
  ASSERT_TRUE(update_on_failure(ws, c.get()));
  EXPECT_EQ(ws.kind(db::PointerKey{0, 0, 2}), db::WeightKind::Infinite);  // leaf
  EXPECT_EQ(ws.kind(db::PointerKey{0, 0, 1}), db::WeightKind::Unknown);   // root side
}

TEST_F(UpdateRules, FailureNoopWhenChainAlreadyInfinite) {
  ws.set_session(db::PointerKey{0, 0, 1}, ws.params().infinity());
  auto c = chain({arc(1, 128), arc(2, 17)});
  EXPECT_FALSE(update_on_failure(ws, c.get()));
  EXPECT_EQ(ws.kind(db::PointerKey{0, 0, 2}), db::WeightKind::Unknown);
}

TEST_F(UpdateRules, FailureNoopWhenAllKnown) {
  ws.set_session(db::PointerKey{0, 0, 1}, 4.0);
  auto c = chain({arc(1, 4)});
  EXPECT_FALSE(update_on_failure(ws, c.get()));
}

TEST_F(UpdateRules, SuccessDistributesRemainderEqually) {
  ws.set_session(db::PointerKey{0, 0, 1}, 6.0);  // known
  auto c = chain({arc(1, 6), arc(2, 17), arc(3, 17)});
  EXPECT_EQ(update_on_success(ws, c.get()), 2u);
  EXPECT_DOUBLE_EQ(ws.weight(db::PointerKey{0, 0, 2}), 5.0);  // (16-6)/2
  EXPECT_DOUBLE_EQ(ws.weight(db::PointerKey{0, 0, 3}), 5.0);
  EXPECT_DOUBLE_EQ(chain_bound_now(ws, c.get()), 16.0);  // == N
}

TEST_F(UpdateRules, SuccessWithKnownSumAboveNSetsZero) {
  ws.set_session(db::PointerKey{0, 0, 1}, 10.0);
  ws.set_session(db::PointerKey{0, 0, 2}, 9.0);
  auto c = chain({arc(1, 10), arc(2, 9), arc(3, 17)});
  EXPECT_EQ(update_on_success(ws, c.get()), 1u);
  EXPECT_DOUBLE_EQ(ws.weight(db::PointerKey{0, 0, 3}), 0.0);
}

TEST_F(UpdateRules, SuccessResetsInfiniteWeights) {
  ws.set_session(db::PointerKey{0, 0, 1}, ws.params().infinity());
  auto c = chain({arc(1, 128)});
  EXPECT_EQ(update_on_success(ws, c.get()), 1u);
  EXPECT_DOUBLE_EQ(ws.weight(db::PointerKey{0, 0, 1}), 16.0);  // full N
}

TEST_F(UpdateRules, SuccessAllKnownNoChange) {
  ws.set_session(db::PointerKey{0, 0, 1}, 8.0);
  ws.set_session(db::PointerKey{0, 0, 2}, 8.0);
  auto c = chain({arc(1, 8), arc(2, 8)});
  EXPECT_EQ(update_on_success(ws, c.get()), 0u);
  EXPECT_DOUBLE_EQ(ws.weight(db::PointerKey{0, 0, 1}), 8.0);
}

TEST_F(UpdateRules, ChainLengthCounts) {
  auto c = chain({arc(1, 1), arc(2, 1), arc(3, 1)});
  EXPECT_EQ(chain_length(c.get()), 3u);
  EXPECT_EQ(chain_length(nullptr), 0u);
}

// -------------------------------------------------- adaptive search (§5) --

TEST(Adaptive, SuccessfulChainsHaveBoundNAfterUpdate) {
  Interpreter ip;
  ip.consult_string(kFamily);
  auto r1 = ip.solve("gf(sam,G)", opt(Strategy::DepthFirst));
  ASSERT_EQ(r1.solutions.size(), 2u);
  // Run again: chains of both solutions should now carry known weights that
  // sum to (close to) N.
  auto r2 = ip.solve("gf(sam,G)", opt(Strategy::BestFirst));
  for (const auto& sol : r2.solutions)
    EXPECT_LE(sol.bound, ip.weights().params().n + 1e-9) << sol.text;
}

TEST(Adaptive, SecondQueryExpandsFewerNodes) {
  Interpreter ip;
  ip.consult_string(kFamily);
  SearchOptions o = opt(Strategy::BestFirst);
  o.limits.max_solutions = 1;
  auto r1 = ip.solve("gf(sam,G)", o);
  const auto first = r1.stats.nodes_expanded;
  auto r2 = ip.solve("gf(sam,G)", o);
  EXPECT_LE(r2.stats.nodes_expanded, first);
}

TEST(Adaptive, FailedBranchAvoidedNextTime) {
  Interpreter ip;
  ip.consult_string(kFamily);
  // Exhaustive first run marks the gf-rule-2 path (m(larry,_) fails) with an
  // infinity on its nearest-leaf unknown arc.
  (void)ip.solve("gf(sam,G)", opt(Strategy::DepthFirst));
  const auto snap = ip.weights().snapshot();
  bool has_infinity = false;
  for (const auto& [k, w] : snap)
    has_infinity |= ip.weights().classify(w) == db::WeightKind::Infinite;
  EXPECT_TRUE(has_infinity);
}

TEST(Adaptive, BestFirstWithIncumbentPruningStillFindsASolution) {
  Interpreter ip;
  ip.consult_string(kFamily);
  (void)ip.solve("gf(sam,G)", opt(Strategy::DepthFirst));  // adapt weights
  SearchOptions o = opt(Strategy::BestFirst);
  o.prune_with_incumbent = true;
  o.prune_margin = 0.0;
  auto r = ip.solve("gf(sam,G)", o);
  EXPECT_GE(r.solutions.size(), 1u);
}

TEST(Adaptive, BoundsAreMonotoneAlongChains) {
  Interpreter ip;
  ip.consult_string(kFamily);
  SearchObserver obs;
  double max_violation = 0.0;
  obs.on_expand = [&](const Node& parent, const std::vector<Node>& children) {
    for (const auto& c : children)
      max_violation = std::max(max_violation, parent.bound - c.bound);
  };
  (void)ip.solve("gf(X,G)", opt(Strategy::BestFirst), &obs);
  EXPECT_LE(max_violation, 0.0);  // child bound >= parent bound always
}

TEST(Adaptive, UpdatesStayInSessionUntilEnd) {
  Interpreter ip;
  ip.consult_string(kFamily);
  ip.begin_session();
  (void)ip.solve("gf(sam,G)");
  EXPECT_GT(ip.weights().session_size(), 0u);
  EXPECT_EQ(ip.weights().global_size(), 0u);
  ip.end_session();
  EXPECT_EQ(ip.weights().session_size(), 0u);
  EXPECT_GT(ip.weights().global_size(), 0u);
}

}  // namespace
}  // namespace blog::search
