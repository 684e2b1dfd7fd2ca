// Unit tests for the consult-time static analysis (groundness fixpoint,
// determinism flags, independence verdicts) and for its one observable
// effect on execution: the trail-free commit path may change *how much the
// trail is written*, never *what is found*.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "blog/analysis/domain.hpp"
#include "blog/analysis/independence.hpp"
#include "blog/andp/independence.hpp"
#include "blog/engine/interpreter.hpp"
#include "blog/support/rng.hpp"
#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::analysis {
namespace {

using engine::Interpreter;

/// Consult `program` and return the attached analysis (never null: the
/// interpreter runs `ensure` at consult time).
std::shared_ptr<const ProgramAnalysis> analysis_of(Interpreter& ip,
                                                   const std::string& program) {
  ip.consult_string(program);
  const auto& a = ip.program().analysis();
  EXPECT_NE(a, nullptr);
  return a;
}

const PredicateInfo* info_of(const ProgramAnalysis& a, const char* name,
                             std::uint32_t arity) {
  return a.info(db::Pred{intern(name), arity});
}

// ------------------------------------------------------ groundness modes --

TEST(Groundness, GroundFactsAreGroundInEveryArgument) {
  Interpreter ip;
  const auto a = analysis_of(ip, "edge(a,b). edge(b,c). edge(c,d).");
  const auto* pi = info_of(*a, "edge", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->proven_succeeds);
  EXPECT_TRUE(pi->all_facts);
  EXPECT_TRUE(pi->all_ground_facts);
  ASSERT_EQ(pi->success_modes.size(), 2u);
  EXPECT_EQ(pi->success_modes[0], Mode::Ground);
  EXPECT_EQ(pi->success_modes[1], Mode::Ground);
  EXPECT_TRUE(pi->all_ground_success());
  EXPECT_GT(a->iterations, 0u);
}

TEST(Groundness, RecursionReachesTheGroundFixpoint) {
  // nat/1 succeeds only on fully built s-chains: the fixpoint must prove
  // the argument ground on success even though the clause head has a var.
  Interpreter ip;
  const auto a = analysis_of(ip, "nat(z). nat(s(X)) :- nat(X).");
  const auto* pi = info_of(*a, "nat", 1);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->proven_succeeds);
  ASSERT_EQ(pi->success_modes.size(), 1u);
  EXPECT_EQ(pi->success_modes[0], Mode::Ground);
  EXPECT_FALSE(pi->all_facts);
  EXPECT_TRUE(pi->all_ground_success());
}

TEST(Groundness, UnconstrainedHeadVariableIsFree) {
  Interpreter ip;
  const auto a = analysis_of(ip, "any(X).");
  const auto* pi = info_of(*a, "any", 1);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->all_facts);
  EXPECT_FALSE(pi->all_ground_facts);
  ASSERT_EQ(pi->success_modes.size(), 1u);
  EXPECT_EQ(pi->success_modes[0], Mode::Free);
  EXPECT_FALSE(pi->all_ground_success());
}

TEST(Groundness, ArithmeticGroundsItsResult) {
  // `is` can only succeed by binding Y to an integer, and X must already be
  // ground for the evaluation to succeed: both arguments come out Ground.
  Interpreter ip;
  const auto a =
      analysis_of(ip, "n(1). n(2). succ(X,Y) :- n(X), Y is X + 1.");
  const auto* pi = info_of(*a, "succ", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->proven_succeeds);
  ASSERT_EQ(pi->success_modes.size(), 2u);
  EXPECT_EQ(pi->success_modes[0], Mode::Ground);
  EXPECT_EQ(pi->success_modes[1], Mode::Ground);
}

TEST(Groundness, UnificationPropagatesGroundness) {
  Interpreter ip;
  const auto a = analysis_of(ip, "k(c). alias(X,Y) :- k(X), Y = X.");
  const auto* pi = info_of(*a, "alias", 2);
  ASSERT_NE(pi, nullptr);
  ASSERT_EQ(pi->success_modes.size(), 2u);
  EXPECT_EQ(pi->success_modes[0], Mode::Ground);
  EXPECT_EQ(pi->success_modes[1], Mode::Ground);
}

TEST(Groundness, FailingBodiesAreNeverProvenToSucceed) {
  Interpreter ip;
  const auto a = analysis_of(
      ip, "dead(X) :- fail. orphan(X) :- missing_predicate(X). "
          "loop(X) :- loop(X).");
  for (const char* name : {"dead", "orphan", "loop"}) {
    const auto* pi = info_of(*a, name, 1);
    ASSERT_NE(pi, nullptr) << name;
    EXPECT_FALSE(pi->proven_succeeds) << name;
    EXPECT_FALSE(pi->all_ground_success()) << name;
  }
}

TEST(Groundness, UnknownWhenACalleeLeavesTheArgumentOpen) {
  // free/1 never binds its argument, so half(X,Y) may leave Y unbound on
  // success: the analysis must not claim Ground (and not Free either — the
  // head var Y occurs in the body).
  Interpreter ip;
  const auto a = analysis_of(ip, "free(F). half(X,Y) :- k(X), free(Y). k(c).");
  const auto* pi = info_of(*a, "half", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->proven_succeeds);
  ASSERT_EQ(pi->success_modes.size(), 2u);
  EXPECT_EQ(pi->success_modes[0], Mode::Ground);
  EXPECT_NE(pi->success_modes[1], Mode::Ground);
  EXPECT_FALSE(pi->all_ground_success());
}

TEST(Groundness, JoinIsALattice) {
  for (const Mode m : {Mode::Bottom, Mode::Ground, Mode::Free, Mode::Unknown}) {
    EXPECT_EQ(join(Mode::Bottom, m), m);
    EXPECT_EQ(join(m, Mode::Bottom), m);
    EXPECT_EQ(join(m, m), m);
    EXPECT_EQ(join(m, Mode::Unknown), Mode::Unknown);
  }
  EXPECT_EQ(join(Mode::Ground, Mode::Free), Mode::Unknown);
}

// ----------------------------------------------------------- determinism --

TEST(Determinism, DistinctKeysGiveUniqueKeyAndMutexHeads) {
  Interpreter ip;
  const auto a = analysis_of(ip, "k(a,1). k(b,2). k(c,3).");
  const auto* pi = info_of(*a, "k", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->det_unique_key);
  EXPECT_TRUE(pi->det_mutex_heads);
  EXPECT_TRUE(pi->deterministic_hint());
  EXPECT_EQ(pi->clause_count, 3u);
}

TEST(Determinism, SameKeyNonUnifiableHeadsAreStillMutex) {
  // Same first argument, different second: unique-key determinism is gone
  // (the index bucket holds both), but no goal can match more than one
  // head, so pairwise mutual exclusion survives.
  Interpreter ip;
  const auto a = analysis_of(ip, "m(a,1). m(a,2).");
  const auto* pi = info_of(*a, "m", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_FALSE(pi->det_unique_key);
  EXPECT_TRUE(pi->det_mutex_heads);
  EXPECT_TRUE(pi->deterministic_hint());
}

TEST(Determinism, UnifiableDuplicateKeysBreakBoth) {
  Interpreter ip;
  const auto a = analysis_of(ip, "d(a,1). d(a,X).");
  const auto* pi = info_of(*a, "d", 2);
  ASSERT_NE(pi, nullptr);
  EXPECT_FALSE(pi->det_unique_key);
  EXPECT_FALSE(pi->det_mutex_heads);  // d(a,X) unifies with d(a,1)
  EXPECT_FALSE(pi->deterministic_hint());
}

TEST(Determinism, VarHeadedClauseBreaksBoth) {
  Interpreter ip;
  const auto a = analysis_of(ip, "v(a). v(X).");
  const auto* pi = info_of(*a, "v", 1);
  ASSERT_NE(pi, nullptr);
  EXPECT_FALSE(pi->det_unique_key);
  EXPECT_FALSE(pi->det_mutex_heads);  // v(X) unifies with v(a)
  EXPECT_FALSE(pi->deterministic_hint());
}

TEST(Determinism, SingleClauseIsDeterministic) {
  Interpreter ip;
  const auto a = analysis_of(ip, "only(X) :- k(X). k(c).");
  const auto* pi = info_of(*a, "only", 1);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(pi->det_unique_key);
  EXPECT_TRUE(pi->det_mutex_heads);
}

// ------------------------------------------------- clause independence --

/// Analysis of a one-clause program; returns its ClauseInfo.
ClauseInfo clause_info_of(const std::string& program) {
  Interpreter ip;
  ip.consult_string(program);
  const auto& a = ip.program().analysis();
  EXPECT_NE(a, nullptr);
  // The clause under test is the last one added.
  for (auto it = a->clauses.rbegin(); it != a->clauses.rend(); ++it)
    if (it->body_size >= 2) return *it;
  return {};
}

TEST(ClauseIndependence, DisjointGoalsOverFreshVarsAreIndependent) {
  const auto ci = clause_info_of(
      "p(1). q(2). pair(X,Y) :- p(X), q(Y).");
  ASSERT_EQ(ci.body_size, 2u);
  EXPECT_EQ(ci.pair(0, 1), Indep::Independent);
}

TEST(ClauseIndependence, SharedFreshVariableIsDependent) {
  // X is not a head variable and no goal precedes p(X): at the fork it is
  // provably unbound and shared.
  const auto ci = clause_info_of("p(1). q(1). same(Z) :- p(X), q(X).");
  ASSERT_EQ(ci.body_size, 2u);
  EXPECT_EQ(ci.pair(0, 1), Indep::Dependent);
}

TEST(ClauseIndependence, SharedHeadVariableIsUnknown) {
  // X comes in through the head: the caller may pass it ground (independent
  // at run time) or unbound (dependent) — statically undecidable.
  const auto ci = clause_info_of("p(1). q(1). both(X) :- p(X), q(X).");
  ASSERT_EQ(ci.body_size, 2u);
  EXPECT_EQ(ci.pair(0, 1), Indep::Unknown);
}

TEST(ClauseIndependence, GroundingPrefixMakesLaterPairsIndependent) {
  // After p(X) runs, X is ground (p/1 is all ground facts): q(X) and r(X)
  // then share only a ground variable — independent by the fork condition.
  const auto ci = clause_info_of(
      "p(1). q(1). r(1). chain(Z) :- p(X), q(X), r(X).");
  ASSERT_EQ(ci.body_size, 3u);
  EXPECT_EQ(ci.pair(0, 1), Indep::Dependent);   // X fresh at the p/q fork
  EXPECT_EQ(ci.pair(1, 2), Indep::Independent); // X ground after p(X)
}

// -------------------------------------------- static query-level verdicts --

/// Parse `text` as c(G1,G2) and return the static verdict for the pair.
Indep pair_verdict_of(const char* text) {
  term::Store s;
  const auto rt = term::parse_term(text, s);
  return static_pair_verdict(s, s.arg(rt.term, 0), s.arg(rt.term, 1));
}

TEST(StaticVerdict, DisjointVarsIndependent) {
  EXPECT_EQ(pair_verdict_of("c(p(X), q(Y))"), Indep::Independent);
  EXPECT_EQ(pair_verdict_of("c(p(a), q(b))"), Indep::Independent);
}

TEST(StaticVerdict, SharedVarDependent) {
  EXPECT_EQ(pair_verdict_of("c(p(X), q(X))"), Indep::Dependent);
  EXPECT_EQ(pair_verdict_of("c(p(X,Y), q(Y,Z))"), Indep::Dependent);
}

TEST(StaticVerdict, BoundVariablesForceTheRuntimeScan) {
  // Once any variable is bound the syntactic view lies; the verdict must
  // defer to the run-time scan.
  term::Store s;
  const auto rt = term::parse_term("c(p(X), q(X))", s);
  const term::TermRef g0 = s.arg(rt.term, 0);
  const term::TermRef x = s.deref(s.arg(g0, 0));
  term::Trail trail;
  ASSERT_TRUE(term::unify(s, x, s.make_atom("ground_now"), trail));
  EXPECT_EQ(static_pair_verdict(s, g0, s.arg(rt.term, 1)), Indep::Unknown);
}

TEST(StaticVerdict, ConjunctionVerdictAggregates) {
  term::Store s;
  const auto rt = term::parse_term("c(p(X), q(Y), r(Z))", s);
  std::vector<term::TermRef> goals;
  for (std::uint32_t i = 0; i < s.arity(rt.term); ++i)
    goals.push_back(s.arg(rt.term, i));
  EXPECT_EQ(static_conjunction_verdict(s, goals), Indep::Independent);
}

// ------------------------------- property: static never contradicts runtime --

TEST(StaticVerdict, PropertyStaticNeverContradictsRuntimeScan) {
  // Random two-goal conjunctions over a small variable pool. Whenever the
  // static verdict is definitive, the run-time union-find (the ground
  // truth on a freshly parsed store) must agree: Independent ⇒ separate
  // groups, Dependent ⇒ one group. (Deterministic LCG: no global RNG.)
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng](std::uint64_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % bound;
  };
  const char* vars[] = {"A", "B", "C", "D"};
  const char* atoms[] = {"a", "b", "1"};
  for (int trial = 0; trial < 200; ++trial) {
    auto make_goal = [&](const char* f) {
      std::string g = std::string(f) + "(";
      const std::uint64_t arity = 1 + next(2);
      for (std::uint64_t i = 0; i < arity; ++i) {
        if (i) g += ",";
        g += next(2) ? vars[next(4)] : atoms[next(3)];
      }
      return g + ")";
    };
    const std::string text = "c(" + make_goal("p") + "," + make_goal("q") + ")";
    term::Store s;
    const auto rt = term::parse_term(text, s);
    const term::TermRef g0 = s.arg(rt.term, 0);
    const term::TermRef g1 = s.arg(rt.term, 1);
    const Indep verdict = static_pair_verdict(s, g0, g1);

    const std::vector<term::TermRef> goals{g0, g1};
    const auto runtime = andp::analyze(s, goals);
    const bool shares = runtime.groups.size() == 1;
    if (verdict == Indep::Independent)
      EXPECT_FALSE(shares) << text;
    else if (verdict == Indep::Dependent)
      EXPECT_TRUE(shares) << text;
    // Unknown: either is fine — that is the point of the verdict.
  }
}

// ------------------------- property: builtins never contradict their axiom --

/// A random builtin argument: small integers, atoms, fresh or shared
/// variables, arithmetic expressions and other compounds.
term::TermRef random_arg(Rng& rng, term::Store& s, std::vector<term::TermRef>& vars,
                         int depth) {
  switch (rng.below(depth > 0 ? 6 : 3)) {
    case 0:
      return s.make_int(rng.range(-5, 5));
    case 1:
      return s.make_atom(rng.chance(0.5) ? "a" : "b");
    case 2:
      if (!vars.empty() && rng.chance(0.5)) return vars[rng.below(vars.size())];
      vars.push_back(s.make_var());
      return vars.back();
    case 3:
    case 4: {
      static constexpr const char* kBinary[] = {"+", "-", "*", "//", "mod", "min", "max"};
      if (rng.chance(0.2)) {
        const term::TermRef a[1] = {random_arg(rng, s, vars, depth - 1)};
        return s.make_struct(intern(rng.chance(0.5) ? "-" : "abs"), a);
      }
      const term::TermRef a[2] = {random_arg(rng, s, vars, depth - 1),
                                  random_arg(rng, s, vars, depth - 1)};
      return s.make_struct(intern(kBinary[rng.below(std::size(kBinary))]), a);
    }
    default: {
      const term::TermRef a[2] = {random_arg(rng, s, vars, depth - 1),
                                  random_arg(rng, s, vars, depth - 1)};
      return rng.chance(0.5) ? s.make_struct(intern("f"), a) : s.make_list(a);
    }
  }
}

TEST(BuiltinAxioms, RuntimeSuccessNeverContradictsTheAxiom) {
  // Every BLOG_BUILTINS row on 200 random argument tuples. The groundness
  // analysis simulates a builtin by its axiom alone, so whenever the
  // evaluator succeeds: Eval and TypeGround rows leave every argument
  // ground, a Unify row grounds a side whose partner was ground before
  // the call, and a Fail row never succeeds at all.
  using engine::BuiltinAxiom;
  engine::StandardBuiltins builtins;
  Rng rng(17);
  for (std::size_t row = 0; row < std::size(engine::kBuiltins); ++row) {
    const engine::BuiltinRow& b = engine::kBuiltins[row];
    int successes = 0;
    for (int trial = 0; trial < 200; ++trial) {
      term::Store s;
      term::Trail trail;
      std::vector<term::TermRef> vars;
      std::vector<term::TermRef> args;
      for (std::uint32_t i = 0; i < b.arity; ++i)
        args.push_back(i > 0 && rng.chance(0.2) ? args[0] : random_arg(rng, s, vars, 2));
      const term::TermRef goal = b.arity == 0 ? s.make_atom(intern(b.name))
                                              : s.make_struct(intern(b.name), args);
      std::vector<bool> was_ground;
      for (const term::TermRef a : args) was_ground.push_back(term::is_ground(s, a));
      const std::string text = term::to_string(s, goal);

      const auto outcome = builtins.eval(s, goal, trail);
      ASSERT_NE(outcome, search::BuiltinEvaluator::Outcome::NotBuiltin) << text;
      if (outcome != search::BuiltinEvaluator::Outcome::True) continue;
      ++successes;
      switch (b.axiom) {
        case BuiltinAxiom::Fail:
          ADD_FAILURE() << text << " succeeded";
          break;
        case BuiltinAxiom::Eval:
        case BuiltinAxiom::TypeGround:
          for (const term::TermRef a : args)
            EXPECT_TRUE(term::is_ground(s, a)) << text;
          break;
        case BuiltinAxiom::Unify:
          EXPECT_TRUE(!was_ground[0] || term::is_ground(s, args[1])) << text;
          EXPECT_TRUE(!was_ground[1] || term::is_ground(s, args[0])) << text;
          break;
        case BuiltinAxiom::True:
        case BuiltinAxiom::NoEffect:
          break;
      }
    }
    // Every row but `fail` must have been exercised on a success.
    EXPECT_TRUE(b.axiom == BuiltinAxiom::Fail || successes > 0) << b.name;
  }
}

// ------------------------------------------------ trail-free execution --

TEST(TrailFree, GroundFactLookupsWriteNoTrailEntries) {
  const std::string program = "edge(a,b). edge(b,c). edge(c,d).";
  search::SearchOptions o;
  o.strategy = search::Strategy::DepthFirst;
  o.update_weights = false;

  Interpreter on;
  on.consult_string(program);
  const auto r_on = on.solve("edge(b,X)", o);

  search::SearchOptions off = o;
  off.expander.static_analysis = false;
  Interpreter ip_off;
  ip_off.consult_string(program);
  const auto r_off = ip_off.solve("edge(b,X)", off);

  EXPECT_EQ(engine::solution_texts(r_on), engine::solution_texts(r_off));
  EXPECT_GT(r_off.stats.expand.trail_writes, 0u);
  EXPECT_EQ(r_on.stats.expand.trail_writes, 0u)
      << "all-ground fact bucket of size 1 must commit without trailing";
}

TEST(TrailFree, AnalysisOnOffIsByteIdenticalSequentially) {
  struct Case {
    const char* program;
    const char* query;
  };
  const Case cases[] = {
      {"edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). "
       "path(X,Z) :- edge(X,Y), path(Y,Z).",
       "path(a,W)"},
      {"k(a,1). k(b,2). k(C,v) :- m(C). m(a).", "k(a,V)"},
      {"nat(z). nat(s(X)) :- nat(X).", "nat(s(s(z)))"},
  };
  for (const auto& c : cases) {
    for (const auto strat :
         {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
          search::Strategy::BestFirst}) {
      search::SearchOptions o;
      o.strategy = strat;
      o.update_weights = false;
      Interpreter a;
      a.consult_string(c.program);
      const auto with = engine::solution_texts(a.solve(c.query, o));

      search::SearchOptions off = o;
      off.expander.static_analysis = false;
      Interpreter b;
      b.consult_string(c.program);
      const auto without = engine::solution_texts(b.solve(c.query, off));
      EXPECT_EQ(with, without)
          << c.query << " / " << search::strategy_name(strat);
    }
  }
}

TEST(TrailFree, EditInvalidatesAndReconsultsRecompute) {
  // add_clause must drop the attached analysis (it describes a program
  // that no longer exists); the next consult recomputes it.
  Interpreter ip;
  ip.consult_string("e(a,b).");
  ASSERT_NE(ip.program().analysis(), nullptr);
  const auto before = ip.program().analysis();
  ip.consult_string("e(X,Y) :- impossible(X,Y).");
  const auto after = ip.program().analysis();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  const auto* pi = after->info(db::Pred{intern("e"), 2});
  ASSERT_NE(pi, nullptr);
  EXPECT_FALSE(pi->all_facts);
  EXPECT_FALSE(pi->all_ground_facts);
}

}  // namespace
}  // namespace blog::analysis
