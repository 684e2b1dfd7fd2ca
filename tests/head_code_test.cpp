// Unit tests for the WAM-lite head bytecode: compilation (opcode sequence,
// slot/constant tables) and execution of every opcode in read and write
// mode, plus the property the whole compile layer rests on — bytecode
// matching is observably identical to import-then-unify.
#include <gtest/gtest.h>

#include "blog/db/head_code.hpp"
#include "blog/db/program.hpp"
#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"

namespace blog::db {
namespace {

/// The compiled head of the first clause of `clause_text`.
const HeadCode& head_of(Program& p, const std::string& clause_text) {
  p.consult_string(clause_text);
  return p.clause(p.size() - 1).head_code();
}

/// Run one bytecode match of `goal_text` against the head of `clause_text`
/// and report success plus the (bound) goal rendering.
struct MatchOutcome {
  bool ok = false;
  std::string goal_after;
};

MatchOutcome run_match(const std::string& clause_text,
                       const std::string& goal_text,
                       bool occurs_check = false) {
  Program p;
  const HeadCode& hc = head_of(p, clause_text);
  term::Store s;
  const auto rt = term::parse_term(goal_text, s);
  term::Trail trail;
  HeadMatcher m;
  MatchOutcome out;
  out.ok = m.match(s, trail, rt.term, hc, {.occurs_check = occurs_check});
  out.goal_after = term::to_string(s, rt.term);
  return out;
}

TEST(HeadCodeCompile, AtomHeadIsEmptyProgram) {
  Program p;
  EXPECT_TRUE(head_of(p, "run :- fact(a).").empty());
}

TEST(HeadCodeCompile, ReverseArgumentOrderMatchesUnifyTraversal) {
  // unify's explicit stack processes argument lists right-to-left, so the
  // last argument's subtree is compiled first.
  Program p;
  const HeadCode& hc = head_of(p, "f(a,1,g(X),X).");
  const auto code = hc.code();
  ASSERT_EQ(code.size(), 5u);
  EXPECT_EQ(code[0].op, HeadOp::kGetVar);     // X (first occurrence: arg 4)
  EXPECT_EQ(code[1].op, HeadOp::kGetStruct);  // g/1 (arg 3)
  EXPECT_EQ(code[2].op, HeadOp::kGetValue);   // X again, inside g
  EXPECT_EQ(code[3].op, HeadOp::kGetInt);     // 1 (arg 2)
  EXPECT_EQ(code[4].op, HeadOp::kGetAtom);    // a (arg 1)
  EXPECT_EQ(code[1].b, 1u);                   // g's arity
  EXPECT_EQ(code[2].a, code[0].a);            // same slot both occurrences
  EXPECT_EQ(hc.slot_count(), 1u);
  EXPECT_EQ(hc.int_at(code[3].a), 1);
}

TEST(HeadCodeCompile, OpcodeNamesCoverTheTable) {
  EXPECT_STREQ(head_op_name(HeadOp::kGetStruct), "GetStruct");
  EXPECT_STREQ(head_op_name(HeadOp::kGetValue), "GetValue");
}

TEST(HeadMatcher, GetAtomReadAndMismatch) {
  EXPECT_TRUE(run_match("f(a).", "f(a)").ok);
  EXPECT_FALSE(run_match("f(a).", "f(b)").ok);
  EXPECT_FALSE(run_match("f(a).", "f(1)").ok);
}

TEST(HeadMatcher, GetAtomWritesIntoVariable) {
  const auto r = run_match("f(a).", "f(X)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.goal_after, "f(a)");
}

TEST(HeadMatcher, GetIntReadWriteAndMismatch) {
  EXPECT_TRUE(run_match("f(42).", "f(42)").ok);
  EXPECT_FALSE(run_match("f(42).", "f(41)").ok);
  const auto r = run_match("f(42).", "f(X)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.goal_after, "f(42)");
}

TEST(HeadMatcher, GetStructReadMatchesFunctorAndArity) {
  EXPECT_TRUE(run_match("f(g(a)).", "f(g(a))").ok);
  EXPECT_FALSE(run_match("f(g(a)).", "f(h(a))").ok);
  EXPECT_FALSE(run_match("f(g(a)).", "f(g(a,b))").ok);
  EXPECT_FALSE(run_match("f(g(a)).", "f(g(b))").ok);
}

TEST(HeadMatcher, GetStructWriteModeBuildsHeadTerm) {
  // An unbound goal argument receives the whole head subterm, with the
  // clause's variable names preserved in the representatives.
  const auto r = run_match("f(g(X,b)).", "f(W)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.goal_after, "f(g(X,b))");
}

TEST(HeadMatcher, GetVarKeepsHeadSideName) {
  // Structural unification binds the goal variable to the renamed head
  // variable, so the *head* name is what an answer renders. The bytecode
  // must reproduce that.
  const auto r = run_match("f(X).", "f(Y)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.goal_after, "f(X)");
}

TEST(HeadMatcher, GetValueAliasesRepeatedHeadVariable) {
  const auto ok = run_match("f(X,X).", "f(a,Y)");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.goal_after, "f(a,a)");
  EXPECT_FALSE(run_match("f(X,X).", "f(a,b)").ok);
  // Struct-vs-struct through the alias runs full unification.
  EXPECT_TRUE(run_match("f(X,X).", "f(g(Z),g(a))").ok);
  EXPECT_FALSE(run_match("f(X,X).", "f(g(a),g(b))").ok);
}

TEST(HeadMatcher, OccursCheckAppliesToGetValue) {
  EXPECT_FALSE(run_match("f(Y,g(Y)).", "f(W,W)", /*occurs_check=*/true).ok);
  EXPECT_FALSE(run_match("f(X,g(X)).", "f(h(W),W)", /*occurs_check=*/true).ok);
  // Same shape without sharing: no cycle, the check passes.
  EXPECT_TRUE(run_match("f(Y,g(Y)).", "f(a,g(a))", /*occurs_check=*/true).ok);
}

TEST(HeadMatcher, FailedMatchRollsBackCleanly) {
  Program p;
  const HeadCode& hc = head_of(p, "f(a,b).");
  term::Store s;
  const auto rt = term::parse_term("f(X,c)", s);  // binds X, then fails on c
  term::Trail trail;
  const term::Checkpoint cp = term::checkpoint(s, trail);
  HeadMatcher m;
  EXPECT_FALSE(m.match(s, trail, rt.term, hc));
  term::rollback(s, trail, cp);
  EXPECT_EQ(term::to_string(s, rt.term), "f(X,c)");
  EXPECT_EQ(s.watermark(), cp.store);
}

TEST(HeadMatcher, MatchesStructuralUnificationExactly) {
  // The equivalence property across heads exercising every opcode: same
  // success verdict and byte-identical goal instantiation as renaming the
  // head into the store and unifying structurally.
  const std::pair<const char*, const char*> cases[] = {
      {"f(a).", "f(a)"},          {"f(a).", "f(X)"},
      {"f(a).", "f(b)"},          {"f(7).", "f(7)"},
      {"f(X).", "f(Q)"},          {"f(X,X).", "f(P,Q)"},
      {"f(X,X).", "f(g(A),g(b))"},
      {"f(g(X,h(Y)),Y).", "f(g(a,W),c)"},
      {"f(g(X,h(Y)),Y).", "f(Z,c)"},
      {"f([H|T]).", "f([1,2,3])"},
      {"f([H|T]).", "f([])"},
  };
  for (const auto& [clause_text, goal_text] : cases) {
    Program p;
    const HeadCode& hc = head_of(p, clause_text);
    const Clause& c = p.clause(0);

    term::Store sa;
    const auto ga = term::parse_term(goal_text, sa);
    term::Trail ta;
    HeadMatcher m;
    const bool ok_code = m.match(sa, ta, ga.term, hc);

    term::Store sb;
    const auto gb = term::parse_term(goal_text, sb);
    term::Trail tb;
    term::VarMap vmap;
    const term::TermRef head = sb.import(c.store(), c.head(), vmap);
    const bool ok_unify = term::unify(sb, gb.term, head, tb);

    EXPECT_EQ(ok_code, ok_unify) << clause_text << " vs " << goal_text;
    if (ok_code && ok_unify) {
      EXPECT_EQ(term::to_string(sa, ga.term), term::to_string(sb, gb.term))
          << clause_text << " vs " << goal_text;
    }
  }
}

// ------------------------------------------------------------- the index --

TEST(ClauseIndex, BucketsByAtomIntAndStructKeys) {
  Program p;
  p.consult_string(R"(
    f(a,1). f(b,2). f(a,3). f(7,x). f(g(Q),y). f(g(A,B),z).
  )");
  term::Store s;
  const auto by = [&](const char* goal) {
    return p.candidates_indexed(Pred{intern("f"), 2}, s,
                                term::parse_term(goal, s).term);
  };
  EXPECT_EQ(by("f(a,R)").size(), 2u);        // f(a,1), f(a,3)
  EXPECT_EQ(by("f(b,R)").size(), 1u);
  EXPECT_EQ(by("f(7,R)").size(), 1u);        // int key
  EXPECT_EQ(by("f(8,R)").size(), 0u);        // unseen int, no var heads
  EXPECT_EQ(by("f(g(x),R)").size(), 1u);     // g/1, not g/2
  EXPECT_EQ(by("f(g(x,y),R)").size(), 1u);   // g/2
  EXPECT_EQ(by("f(V,R)").size(), 6u);        // unbound first arg: all
}

TEST(ClauseIndex, VarHeadedClausesMergeInTextualOrder) {
  Program p;
  p.consult_string(R"(
    f(a,1). f(X,any1). f(a,2). f(b,3). f(Y,any2).
  )");
  term::Store s;
  const auto cands = p.candidates_indexed(
      Pred{intern("f"), 2}, s, term::parse_term("f(a,R)", s).term);
  // Textual order: f(a,1), f(X,any1), f(a,2), f(Y,any2) — ids 0,1,2,4.
  ASSERT_EQ(cands.size(), 4u);
  EXPECT_EQ(cands[0], 0u);
  EXPECT_EQ(cands[1], 1u);
  EXPECT_EQ(cands[2], 2u);
  EXPECT_EQ(cands[3], 4u);
  // An unseen key still gets every var-headed clause.
  const auto miss = p.candidates_indexed(
      Pred{intern("f"), 2}, s, term::parse_term("f(zz,R)", s).term);
  ASSERT_EQ(miss.size(), 2u);
  EXPECT_EQ(miss[0], 1u);
  EXPECT_EQ(miss[1], 4u);
}

TEST(ClauseIndex, ZeroArityAndUnknownPredicates) {
  Program p;
  p.consult_string("run :- f(a). f(a).");
  term::Store s;
  // 0-arity goal: the goal is an atom, lookup falls back to `all`.
  EXPECT_EQ(p.candidates_indexed(Pred{intern("run"), 0}, s,
                                 term::parse_term("run", s).term)
                .size(),
            1u);
  EXPECT_TRUE(p.candidates_indexed(Pred{intern("nosuch"), 1}, s,
                                   term::parse_term("nosuch(a)", s).term)
                  .empty());
}

TEST(ClauseIndex, IncrementalAddAfterCopyKeepsIndexLive) {
  // The service snapshot path copies a Program and appends clauses; the
  // copied index must keep bucketing the additions.
  Program p;
  p.consult_string("f(a,1).");
  Program q = p;  // snapshot copy
  q.consult_string("f(a,2). f(b,3).");
  term::Store s;
  EXPECT_EQ(q.candidates_indexed(Pred{intern("f"), 2}, s,
                                 term::parse_term("f(a,R)", s).term)
                .size(),
            2u);
  EXPECT_EQ(p.candidates(Pred{intern("f"), 2}).size(), 1u);  // original intact
}

}  // namespace
}  // namespace blog::db
