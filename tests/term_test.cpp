#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "blog/term/reader.hpp"
#include "blog/term/store.hpp"
#include "blog/term/unify.hpp"
#include "blog/term/writer.hpp"

namespace blog::term {
namespace {

TermRef parse(Store& s, std::string_view text) { return parse_term(text, s).term; }

std::string roundtrip(std::string_view text) {
  Store s;
  return to_string(s, parse(s, text));
}

// ---------------------------------------------------------------- store --

TEST(Store, AtomsCompareBySymbol) {
  Store s;
  const TermRef a = s.make_atom("foo");
  const TermRef b = s.make_atom("foo");
  EXPECT_TRUE(Store::equal(s, a, s, b));
}

TEST(Store, IntRoundTrip64Bit) {
  Store s;
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1} << 40,
        std::int64_t{-(1LL << 40)}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(s.int_value(s.make_int(v)), v);
  }
}

TEST(Store, DerefFollowsBindingChains) {
  Store s;
  const TermRef v1 = s.make_var();
  const TermRef v2 = s.make_var();
  const TermRef a = s.make_atom("x");
  s.bind(v1, v2);
  s.bind(v2, a);
  EXPECT_EQ(s.deref(v1), a);
}

TEST(Store, UnbindRestoresVar) {
  Store s;
  const TermRef v = s.make_var();
  s.bind(v, s.make_atom("x"));
  s.unbind(v);
  EXPECT_TRUE(s.is_unbound(v));
}

TEST(Store, ImportCopiesStructure) {
  Store src, dst;
  const TermRef t = parse(src, "f(a,g(B,B),3)");
  VarMap vmap;
  const TermRef u = dst.import(src, t, vmap);
  EXPECT_EQ(to_string(dst, u), to_string(src, t));
  // shared variable B maps to a single fresh var
  EXPECT_EQ(vmap.size(), 1u);
}

TEST(Store, ImportDereferencesBindings) {
  Store src, dst;
  const TermRef t = parse(src, "f(X)");
  const TermRef x = src.deref(src.arg(src.deref(t), 0));
  Trail trail;
  ASSERT_TRUE(unify(src, x, src.make_atom("hello"), trail));
  VarMap vmap;
  const TermRef u = dst.import(src, t, vmap);
  EXPECT_EQ(to_string(dst, u), "f(hello)");
}

TEST(Store, ImportRenamesApartOnlyAfterClear) {
  Store src, dst;
  const TermRef clause = parse(src, "app([H|T],L,[H|R])");
  VarMap vmap;
  const TermRef c1 = dst.import(src, clause, vmap);
  EXPECT_EQ(vmap.size(), 4u);  // H, T, L, R
  vmap.clear();
  EXPECT_EQ(vmap.size(), 0u);
  const TermRef c2 = dst.import(src, clause, vmap);
  std::vector<TermRef> v1, v2;
  collect_vars(dst, c1, v1);
  collect_vars(dst, c2, v2);
  ASSERT_EQ(v1.size(), 4u);
  ASSERT_EQ(v2.size(), 4u);
  for (const TermRef v : v1)
    EXPECT_EQ(std::find(v2.begin(), v2.end(), v), v2.end())
        << "a stale entry aliased the two renamings";
  // Without a clear, the map keeps sharing: a third import is c2 again.
  const TermRef c3 = dst.import(src, clause, vmap);
  std::vector<TermRef> v3;
  collect_vars(dst, c3, v3);
  EXPECT_EQ(v3, v2);
}

TEST(Store, ImportSharesVariablesAcrossRootsThroughOneMap) {
  Store src, dst;
  const TermRef t = src.deref(parse(src, "h(f(X,Y),g(Y,Z))"));
  VarMap vmap;
  const TermRef f = dst.import(src, src.arg(t, 0), vmap);
  const TermRef g = dst.import(src, src.arg(t, 1), vmap);
  EXPECT_EQ(vmap.size(), 3u);
  Trail trail;
  ASSERT_TRUE(unify(dst, dst.arg(f, 1), dst.make_atom("b"), trail));
  EXPECT_EQ(to_string(dst, g), "g(b,Z)");
  EXPECT_EQ(to_string(dst, f), "f(X,b)");
}

TEST(Store, CompactIntoNamesAnonymousVariablesByCellOrder) {
  // Anonymous variables render as _G<cell>; compaction allocates cells in
  // post-order (arguments before their structure), so the rendered names
  // are fixed by the traversal order and must not drift.
  Store src;
  const TermRef roots[2] = {parse(src, "p(_,g(a,_),_)"),
                            parse(src, "q(_,[_|_])")};
  Store dst;
  std::vector<TermRef> out;
  VarMap vmap;
  src.compact_into(dst, roots, out, vmap);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(to_string(dst, out[0]), "p(_G0,g(a,_G2),_G4)");
  EXPECT_EQ(to_string(dst, out[1]), "q(_G6,[_G7|_G8])");
}

TEST(Store, CompactAsOfTreatsUndoneBindingsAsUnbound) {
  Store s;
  const TermRef t = s.deref(parse(s, "f(X,Y,g(X))"));
  const TermRef x = s.deref(s.arg(t, 0));
  const TermRef y = s.deref(s.arg(t, 1));
  Trail trail;
  ASSERT_TRUE(unify(s, y, s.make_atom("early"), trail));
  const Checkpoint cp = checkpoint(s, trail);
  ASSERT_TRUE(unify(s, x, parse(s, "h(Z)"), trail));

  const TermRef roots[1] = {t};
  Store live, past;
  std::vector<TermRef> lo, po;
  VarMap vmap;  // reused: each compaction clears it on entry
  s.compact_into(live, roots, lo, vmap);
  s.compact_into_as_of(past, roots, po, trail.entries_since(cp.trail), vmap);
  EXPECT_EQ(to_string(live, lo[0]), "f(h(Z),early,g(h(Z)))");
  // X's binding was made after the checkpoint: unbound in the view, and
  // both of its occurrences are one variable of the copy.
  EXPECT_EQ(to_string(past, po[0]), "f(X,early,g(X))");
  const TermRef p = past.deref(po[0]);
  EXPECT_EQ(past.deref(past.arg(p, 0)),
            past.deref(past.arg(past.deref(past.arg(p, 2)), 0)));
  EXPECT_TRUE(past.is_unbound(past.deref(past.arg(p, 0))));
  // The live store is untouched.
  EXPECT_FALSE(s.is_unbound(x));
}

TEST(Store, ReachableCellsCountsTree) {
  Store s;
  const TermRef t = parse(s, "f(a,b)");
  EXPECT_EQ(s.reachable_cells(t), 3u);
  const TermRef deep = parse(s, "f(g(h(x)))");
  EXPECT_EQ(s.reachable_cells(deep), 4u);
}

TEST(Store, MakeListBuildsProperList) {
  Store s;
  const TermRef items[3] = {s.make_int(1), s.make_int(2), s.make_int(3)};
  const TermRef l = s.make_list(items);
  EXPECT_EQ(to_string(s, l), "[1,2,3]");
}

TEST(Store, CompareOrdersStandardOrder) {
  Store s;
  const TermRef v = s.make_var();
  const TermRef i = s.make_int(5);
  const TermRef a = s.make_atom("a");
  const TermRef f = parse(s, "f(x)");
  EXPECT_LT(Store::compare(s, v, s, i), 0);
  EXPECT_LT(Store::compare(s, i, s, a), 0);
  EXPECT_LT(Store::compare(s, a, s, f), 0);
  EXPECT_EQ(Store::compare(s, f, s, f), 0);
}

// ---------------------------------------------------------------- reader --

TEST(Reader, ParsesFact) { EXPECT_EQ(roundtrip("f(curt,elain)"), "f(curt,elain)"); }

TEST(Reader, ParsesRuleWithConjunction) {
  EXPECT_EQ(roundtrip("gf(X,Z) :- f(X,Y), f(Y,Z)"), "gf(X,Z):-f(X,Y),f(Y,Z)");
}

TEST(Reader, ParsesListSugar) {
  EXPECT_EQ(roundtrip("[a,b,c]"), "[a,b,c]");
  EXPECT_EQ(roundtrip("[H|T]"), "[H|T]");
  EXPECT_EQ(roundtrip("[a,b|T]"), "[a,b|T]");
  EXPECT_EQ(roundtrip("[]"), "[]");
}

TEST(Reader, ParsesArithmetic) {
  EXPECT_EQ(roundtrip("X is 1+2*3"), "X is 1+2*3");
  EXPECT_EQ(roundtrip("X is (1+2)*3"), "X is (1+2)*3");
  EXPECT_EQ(roundtrip("A-B-C"), "A-B-C");  // left assoc
}

TEST(Reader, NegativeLiteralsFold) {
  Store s;
  const TermRef t = parse(s, "-42");
  ASSERT_TRUE(s.is_int(s.deref(t)));
  EXPECT_EQ(s.int_value(s.deref(t)), -42);
}

TEST(Reader, SharedVariablesShareCells) {
  Store s;
  const TermRef t = parse(s, "f(X,X,Y)");
  const TermRef x1 = s.deref(s.arg(s.deref(t), 0));
  const TermRef x2 = s.deref(s.arg(s.deref(t), 1));
  const TermRef y = s.deref(s.arg(s.deref(t), 2));
  EXPECT_EQ(x1, x2);
  EXPECT_NE(x1, y);
}

TEST(Reader, AnonymousVarsAreDistinct) {
  Store s;
  const TermRef t = parse(s, "f(_,_)");
  EXPECT_NE(s.deref(s.arg(s.deref(t), 0)), s.deref(s.arg(s.deref(t), 1)));
}

TEST(Reader, QuotedAtoms) {
  EXPECT_EQ(roundtrip("'hello world'"), "hello world");
  Store s;
  const TermRef t = parse(s, "'don''t'");
  EXPECT_EQ(symbol_name(s.atom_name(s.deref(t))), "don't");
}

TEST(Reader, CommentsSkipped) {
  Store s;
  Reader r("% line comment\nf(a). /* block */ g(b).", s);
  const auto all = r.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(to_string(s, all[0].term), "f(a)");
  EXPECT_EQ(to_string(s, all[1].term), "g(b)");
}

TEST(Reader, MultipleClausesWithVarsScopePerClause) {
  Store s;
  Reader r("f(X). g(X).", s);
  const auto all = r.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(s.deref(s.arg(s.deref(all[0].term), 0)),
            s.deref(s.arg(s.deref(all[1].term), 0)));
}

TEST(Reader, ReportsVariableNames) {
  Store s;
  const auto rt = parse_term("path(A,B,Cost)", s);
  ASSERT_EQ(rt.variables.size(), 3u);
  EXPECT_EQ(symbol_name(rt.variables[0].first), "A");
  EXPECT_EQ(symbol_name(rt.variables[2].first), "Cost");
}

TEST(Reader, ThrowsOnBadSyntax) {
  Store s;
  EXPECT_THROW(parse(s, "f(a"), ParseError);
  EXPECT_THROW(parse(s, "f(a))"), ParseError);
  EXPECT_THROW((void)Reader("f(a)", s).next(), ParseError);  // missing '.'
}

TEST(Reader, ErrorCarriesPosition) {
  Store s;
  try {
    Reader r("f(a).\n g(b", s);
    r.all();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(Reader, ParsesQueryOperators) {
  EXPECT_EQ(roundtrip("X \\= Y"), "X\\=Y");
  EXPECT_EQ(roundtrip("X =< Y"), "X=<Y");
  EXPECT_EQ(roundtrip("X =:= Y"), "X=:=Y");
}

TEST(Reader, CommaPrecedenceVsArgs) {
  Store s;
  // In argument position ',' separates args; as operator it builds pairs.
  const TermRef t = parse(s, "f(a,b)");
  EXPECT_EQ(s.arity(s.deref(t)), 2u);
  const TermRef conj = parse(s, "(a,b)");
  EXPECT_EQ(s.functor(s.deref(conj)), comma_symbol());
}

// ---------------------------------------------------------------- writer --

TEST(Writer, UnnamedVarsGetStableNames) {
  Store s;
  const TermRef v = s.make_var();
  const std::string text = to_string(s, v);
  EXPECT_EQ(text.substr(0, 2), "_G");
}

TEST(Writer, QuotedMode) {
  Store s;
  const TermRef t = s.make_atom("hello world");
  EXPECT_EQ(to_string(s, t, {.quoted = true}), "'hello world'");
  EXPECT_EQ(to_string(s, s.make_atom("abc"), {.quoted = true}), "abc");
}

// ----------------------------------------------------------------- unify --

TEST(Unify, AtomWithSameAtom) {
  Store s;
  Trail tr;
  EXPECT_TRUE(unify(s, s.make_atom("a"), s.make_atom("a"), tr));
  EXPECT_FALSE(unify(s, s.make_atom("a"), s.make_atom("b"), tr));
}

TEST(Unify, VarBindsAndTrails) {
  Store s;
  Trail tr;
  const TermRef v = s.make_var();
  const TermRef a = s.make_atom("a");
  ASSERT_TRUE(unify(s, v, a, tr));
  EXPECT_EQ(s.deref(v), a);
  EXPECT_EQ(tr.size(), 1u);
}

TEST(Unify, FailureRollsBackBindings) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,a)");
  const TermRef t2 = parse(s, "f(b,c)");
  const std::size_t mark = tr.mark();
  EXPECT_FALSE(unify(s, t1, t2, tr));
  EXPECT_EQ(tr.mark(), mark);
  const TermRef x = s.arg(s.deref(t1), 0);
  EXPECT_TRUE(s.is_var(s.deref(x)));
}

TEST(Unify, StructuresRecursively) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,g(X))");
  const TermRef t2 = parse(s, "f(a,g(Y))");
  ASSERT_TRUE(unify(s, t1, t2, tr));
  EXPECT_EQ(to_string(s, t1), "f(a,g(a))");
  EXPECT_EQ(to_string(s, t2), "f(a,g(a))");
}

TEST(Unify, SharedVariableConstraintPropagates) {
  Store s;
  Trail tr;
  const TermRef t1 = parse(s, "f(X,X)");
  const TermRef t2 = parse(s, "f(a,b)");
  EXPECT_FALSE(unify(s, t1, t2, tr));
}

TEST(Unify, ArityMismatchFails) {
  Store s;
  Trail tr;
  EXPECT_FALSE(unify(s, parse(s, "f(a)"), parse(s, "f(a,b)"), tr));
}

TEST(Unify, OccursCheckRejectsCyclic) {
  Store s;
  Trail tr;
  const TermRef x = s.make_var();
  const TermRef args[1] = {x};
  const TermRef fx = s.make_struct(intern("f"), args);
  EXPECT_FALSE(unify(s, x, fx, tr, {.occurs_check = true}));
  EXPECT_TRUE(s.is_unbound(x));
}

TEST(Unify, WithoutOccursCheckBindsCyclic) {
  Store s;
  Trail tr;
  const TermRef x = s.make_var();
  const TermRef args[1] = {x};
  const TermRef fx = s.make_struct(intern("f"), args);
  EXPECT_TRUE(unify(s, x, fx, tr));  // rational-tree binding, Prolog default
}

TEST(Unify, TrailUndoToRestoresIntermediateState) {
  Store s;
  Trail tr;
  const TermRef v1 = s.make_var();
  const TermRef v2 = s.make_var();
  ASSERT_TRUE(unify(s, v1, s.make_atom("a"), tr));
  const std::size_t mark = tr.mark();
  ASSERT_TRUE(unify(s, v2, s.make_atom("b"), tr));
  tr.undo_to(mark, s);
  EXPECT_FALSE(s.is_unbound(v1));
  EXPECT_TRUE(s.is_unbound(v2));
}

TEST(Unify, StatsCountWork) {
  Store s;
  Trail tr;
  UnifyStats st;
  ASSERT_TRUE(unify(s, parse(s, "f(A,B,C)"), parse(s, "f(1,2,3)"), tr, {}, &st));
  EXPECT_EQ(st.bindings, 3u);
  EXPECT_GE(st.cells_visited, 4u);
}

TEST(Unify, LongListsBindInStackOrderPastTheInlineBuffer) {
  // Unifying two lists defers every head pair while it walks the tails,
  // so a 200-element list holds more pending pairs than the work stack's
  // inline buffer. The pairs must still pop last-in first-out: the last
  // element binds first, the order head bytecode reproduces.
  constexpr int kN = 200;
  std::string vars = "[", ints = "[";
  for (int i = 0; i < kN; ++i) {
    vars += (i ? ",X" : "X") + std::to_string(i);
    ints += (i ? "," : "") + std::to_string(i);
  }
  Store s;
  const TermRef l = parse(s, vars + "]");
  const TermRef r = parse(s, ints + "]");
  Trail tr;
  ASSERT_TRUE(unify(s, l, r, tr));
  const auto bound = tr.entries_since(0);
  ASSERT_EQ(bound.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(s.int_value(s.deref(bound[i])), kN - 1 - i) << "trail entry " << i;
}

TEST(Unify, IsGroundAndCollectVars) {
  Store s;
  const TermRef t = parse(s, "f(a,X,g(Y,X))");
  EXPECT_FALSE(is_ground(s, t));
  std::vector<TermRef> vars;
  collect_vars(s, t, vars);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_TRUE(is_ground(s, parse(s, "f(a,b,g(1,[]))")));
}

// ---------------------------------------------------- checkpoint/rollback --

TEST(Checkpoint, RollbackRestoresBindingsAndArena) {
  Store s;
  Trail tr;
  const TermRef t = parse(s, "f(X,Y)");
  const Checkpoint cp = checkpoint(s, tr);
  // Bind X inside the checkpointed region to a term allocated after it.
  const TermRef x = s.deref(s.arg(s.deref(t), 0));
  ASSERT_TRUE(unify(s, x, parse(s, "g(1,2,3)"), tr));
  EXPECT_GT(s.size(), cp.store.cells);
  rollback(s, tr, cp);
  EXPECT_EQ(s.size(), cp.store.cells);
  EXPECT_EQ(tr.mark(), cp.trail);
  EXPECT_TRUE(s.is_unbound(x));
  EXPECT_EQ(to_string(s, t), "f(X,Y)");
}

TEST(Checkpoint, NestedRollbacksUnwindMonotonically) {
  Store s;
  Trail tr;
  const TermRef t = parse(s, "p(A,B,C)");
  const TermRef a = s.deref(s.arg(s.deref(t), 0));
  const TermRef b = s.deref(s.arg(s.deref(t), 1));
  const Checkpoint cp1 = checkpoint(s, tr);
  ASSERT_TRUE(unify(s, a, s.make_atom("one"), tr));
  const Checkpoint cp2 = checkpoint(s, tr);
  ASSERT_TRUE(unify(s, b, parse(s, "h(Z)"), tr));
  rollback(s, tr, cp2);
  EXPECT_EQ(to_string(s, t), "p(one,B,C)");
  rollback(s, tr, cp1);
  EXPECT_EQ(to_string(s, t), "p(A,B,C)");
}

// Property: a random unify/checkpoint/unify/rollback round trip restores
// every variable's rendering and the exact arena size (the invariant the
// in-place search engine rests on).
class CheckpointProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointProps, RoundTripIsExact) {
  std::uint64_t seed = GetParam() * 6364136223846793005ULL + 1442695040888963407ULL;
  auto next = [&seed](std::uint64_t n) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return (seed >> 33) % n;
  };
  for (int trial = 0; trial < 20; ++trial) {
    Store s;
    Trail tr;
    // A pool of terms with shared variables.
    std::vector<TermRef> pool;
    std::vector<TermRef> vars;
    for (int i = 0; i < 6; ++i) vars.push_back(s.make_var());
    for (int i = 0; i < 8; ++i) {
      const TermRef args[2] = {vars[next(vars.size())],
                               next(2) ? s.make_int(static_cast<std::int64_t>(next(5)))
                                       : vars[next(vars.size())]};
      pool.push_back(s.make_struct(intern(next(2) ? "f" : "g"), args));
    }
    // Pre-bind a little, then checkpoint.
    (void)unify(s, pool[next(pool.size())], pool[next(pool.size())], tr);
    const Checkpoint cp = checkpoint(s, tr);
    std::vector<std::string> before;
    for (const TermRef v : vars) before.push_back(to_string(s, v));
    const std::size_t size_before = s.size();
    // Arbitrary work above the checkpoint: new terms, more unifications.
    for (int i = 0; i < 5; ++i) {
      const TermRef fresh = parse(s, next(2) ? "k(V,W,[1,2])" : "g(U,U)");
      (void)unify(s, pool[next(pool.size())], fresh, tr);
    }
    rollback(s, tr, cp);
    EXPECT_EQ(s.size(), size_before);
    for (std::size_t i = 0; i < vars.size(); ++i)
      EXPECT_EQ(to_string(s, vars[i]), before[i]) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProps,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Property-style sweep: unification is symmetric on a corpus of term pairs.
class UnifySymmetry : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(UnifySymmetry, SymmetricOutcome) {
  const auto& [ta, tb] = GetParam();
  Store s1;
  Trail tr1;
  const bool ab = unify(s1, parse(s1, ta), parse(s1, tb), tr1);
  Store s2;
  Trail tr2;
  const bool ba = unify(s2, parse(s2, tb), parse(s2, ta), tr2);
  EXPECT_EQ(ab, ba);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, UnifySymmetry,
    ::testing::Values(std::pair{"f(X,a)", "f(b,Y)"}, std::pair{"f(X,X)", "f(a,b)"},
                      std::pair{"g(X)", "g(h(X2))"}, std::pair{"[1,2|T]", "[H|T2]"},
                      std::pair{"f(a)", "g(a)"}, std::pair{"X", "Y"},
                      std::pair{"f(X,g(X))", "f(g(Y),Y)"},
                      std::pair{"p(1,2,3)", "p(A,B,C)"}));

}  // namespace
}  // namespace blog::term
