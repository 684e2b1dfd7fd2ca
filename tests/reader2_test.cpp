// Second-wave reader/writer tests: operator-precedence conformance, the
// parse→print→parse fixpoint over a syntax corpus, the print→parse
// round-trip property over every BLOG_OPERATORS row, and the reader's
// limits on integer range and nesting depth.
#include <gtest/gtest.h>

#include <limits>
#include <map>

#include "blog/support/rng.hpp"
#include "blog/term/ops.hpp"
#include "blog/term/reader.hpp"
#include "blog/term/writer.hpp"
#include "term_corpus.hpp"

namespace blog::term {
namespace {

std::string functor_shape(const Store& s, TermRef t) {
  t = s.deref(t);
  switch (s.tag(t)) {
    case Tag::Var: return "V";
    case Tag::Int: return std::to_string(s.int_value(t));
    case Tag::Atom: return symbol_name(s.atom_name(t));
    case Tag::Struct: {
      std::string out = symbol_name(s.functor(t)) + "(";
      for (std::uint32_t i = 0; i < s.arity(t); ++i) {
        if (i) out += ",";
        out += functor_shape(s, s.arg(t, i));
      }
      return out + ")";
    }
  }
  return "?";
}

std::string shape(std::string_view text) {
  Store s;
  return functor_shape(s, parse_term(text, s).term);
}

// ----------------------------------------------------- precedence corpus --

struct PrecCase {
  const char* text;
  const char* expected_shape;
};

class Precedence : public ::testing::TestWithParam<PrecCase> {};

TEST_P(Precedence, ParsesToExpectedShape) {
  EXPECT_EQ(shape(GetParam().text), GetParam().expected_shape);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Precedence,
    ::testing::Values(
        PrecCase{"1+2*3", "+(1,*(2,3))"},
        PrecCase{"(1+2)*3", "*(+(1,2),3)"},
        PrecCase{"1+2+3", "+(+(1,2),3)"},          // yfx left assoc
        PrecCase{"1-2-3", "-(-(1,2),3)"},
        PrecCase{"2*3//4", "//(*(2,3),4)"},
        PrecCase{"a , b , c", ",(a,,(b,c))"},      // xfy right assoc
        PrecCase{"X = 1+2", "=(V,+(1,2))"},
        PrecCase{"h :- b1, b2", ":-(h,,(b1,b2))"},
        PrecCase{"X is 2 mod 3", "is(V,mod(2,3))"},
        PrecCase{"f(a,b) = g(C)", "=(f(a,b),g(V))"},
        PrecCase{"1 < 2+3", "<(1,+(2,3))"},
        PrecCase{"- 3 + 4", "+(-3,4)"},            // negative literal folds
        PrecCase{"a ; b , c", ";(a,,(b,c))"},      // ; binds looser than ,
        PrecCase{"x -> y ; z", ";(->(x,y),z)"}));

// ------------------------------------------------------ fixpoint corpus --

class Fixpoint : public ::testing::TestWithParam<const char*> {};

TEST_P(Fixpoint, PrintParsePrintIsStable) {
  const WriteOptions wo{.quoted = true};
  Store s1;
  const TermRef t1 = parse_term(GetParam(), s1).term;
  const std::string p1 = to_string(s1, t1, wo);
  Store s2;
  const TermRef t2 = parse_term(p1, s2).term;
  const std::string p2 = to_string(s2, t2, wo);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(functor_shape(s1, t1), functor_shape(s2, t2));
}

INSTANTIATE_TEST_SUITE_P(Corpus, Fixpoint, ::testing::ValuesIn(test::kFixpointCorpus));

// ------------------------------------------------------ round-trip property --

/// `functor_shape` with each variable numbered by first occurrence and
/// names quoted, so a round trip must also keep which arguments share a
/// variable, and atoms apart from integers (`'1'` is not `1`).
std::string numbered_shape(const Store& s, TermRef t, std::map<TermRef, int>& vars) {
  t = s.deref(t);
  switch (s.tag(t)) {
    case Tag::Var:
      return "V" + std::to_string(vars.emplace(t, static_cast<int>(vars.size())).first->second);
    case Tag::Int: return std::to_string(s.int_value(t));
    case Tag::Atom: return "'" + symbol_name(s.atom_name(t)) + "'";
    case Tag::Struct: {
      std::string out = "'" + symbol_name(s.functor(t)) + "'(";
      for (std::uint32_t i = 0; i < s.arity(t); ++i) {
        if (i) out += ",";
        out += numbered_shape(s, s.arg(t, i), vars);
      }
      return out + ")";
    }
  }
  return "?";
}

std::string numbered_shape(const Store& s, TermRef t) {
  std::map<TermRef, int> vars;
  return numbered_shape(s, t, vars);
}

/// Seeded random terms over every BLOG_OPERATORS row, with operator atoms
/// as operands, atoms that read back only when quoted, integers at both
/// ends of the range, shared and anonymous variables, and lists.
class TermGen {
public:
  TermGen(std::uint64_t seed, Store& s) : rng_(seed), s_(s) {}

  TermRef term(int depth) {
    if (depth == 0 || rng_.chance(0.3)) return leaf();
    const std::uint64_t k = rng_.below(10);
    if (k < 6) {  // an operator row
      const std::size_t row = rng_.below(kOperatorCount);
      ++row_hits[row];
      const OpDef& op = kOperators[row];
      const TermRef args[2] = {term(depth - 1), op.prefix() ? kNullTerm : term(depth - 1)};
      return s_.make_struct(intern(op.name), std::span(args, op.prefix() ? 1 : 2));
    }
    if (k < 8) {  // a compound in functional notation
      std::vector<TermRef> args(1 + rng_.below(3));
      for (TermRef& a : args) a = term(depth - 1);
      return s_.make_struct(atom_name(/*functor=*/true), args);
    }
    std::vector<TermRef> items(1 + rng_.below(3));
    for (TermRef& item : items) item = term(depth - 1);
    return s_.make_list(items, rng_.chance(0.3) ? term(depth - 1) : kNullTerm);
  }

  /// True once the term holds an atom that reads back only when quoted.
  bool needs_quotes = false;
  std::vector<int> row_hits = std::vector<int>(kOperatorCount);

private:
  Symbol atom_name(bool functor) {
    static constexpr const char* kQuoted[] = {"hello world", "A", "_x", "it's", ".", "/*",
                                              "{}", "|", "1a", "a.b", "$"};
    if (rng_.chance(0.2)) {
      needs_quotes = true;
      if (functor && rng_.chance(0.2)) return intern("[]");
      return intern(kQuoted[rng_.below(std::size(kQuoted))]);
    }
    if (rng_.chance(0.5)) return intern(kOperators[rng_.below(kOperatorCount)].name);
    static constexpr const char* kPlain[] = {"a", "foo", "[]", "!", ";", ",", "=..", "@"};
    const char* name = kPlain[rng_.below(std::size(kPlain))];
    return intern(functor && std::string_view(name) == "[]" ? "g" : name);
  }

  TermRef leaf() {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (rng_.below(3)) {
      case 0: {
        static constexpr std::int64_t kInts[] = {0, 1, 42, -1, -5, kMin, kMax, kMin + 1};
        if (rng_.chance(0.3)) return s_.make_int(rng_.range(-1000000, 1000000));
        return s_.make_int(kInts[rng_.below(std::size(kInts))]);
      }
      case 1:
        return s_.make_atom(atom_name(/*functor=*/false));
      default: {
        if (rng_.chance(0.2)) return s_.make_var(intern("_"));
        static constexpr const char* kVars[] = {"X", "Y", "Foo", "_Bar"};
        const char* name = kVars[rng_.below(std::size(kVars))];
        auto [it, fresh] = vars_.emplace(name, kNullTerm);
        if (fresh) it->second = s_.make_var(intern(name));
        return it->second;
      }
    }
  }

  Rng rng_;
  Store& s_;
  std::map<std::string, TermRef> vars_;
};

TEST(RoundTrip, ReadingTheWrittenTextGivesBackTheTerm) {
  constexpr int kTerms = 6000;
  std::vector<int> row_hits(kOperatorCount);
  int unquoted_checked = 0;
  for (int i = 0; i < kTerms; ++i) {
    Store s;
    TermGen gen(1000 + static_cast<std::uint64_t>(i), s);
    const TermRef t = gen.term(1 + i % 6);
    for (std::size_t r = 0; r < kOperatorCount; ++r) row_hits[r] += gen.row_hits[r];
    const std::string want = numbered_shape(s, t);
    for (const bool quoted : {true, false}) {
      // Unquoted text promises a round trip only for atoms that need no quotes.
      if (!quoted && gen.needs_quotes) continue;
      unquoted_checked += quoted ? 0 : 1;
      const std::string text = to_string(s, t, {.quoted = quoted});
      Store back;
      ReadTerm rt;
      ASSERT_NO_THROW(rt = parse_term(text, back)) << "term " << i << ": " << text;
      ASSERT_EQ(numbered_shape(back, rt.term), want) << "term " << i << ": " << text;
    }
  }
  for (std::size_t r = 0; r < kOperatorCount; ++r)
    EXPECT_GT(row_hits[r], 100) << "operator row " << kOperators[r].name;
  EXPECT_GT(unquoted_checked, kTerms / 3);
}

class OperatorProbes : public ::testing::TestWithParam<test::OperatorProbe> {};

TEST_P(OperatorProbes, RenderAndReadBack) {
  Store s;
  const TermRef t = parse_term(GetParam().text, s).term;
  EXPECT_EQ(to_string(s, t), GetParam().rendered);
  for (const bool quoted : {true, false}) {
    Store back;
    const TermRef t2 = parse_term(to_string(s, t, {.quoted = quoted}), back).term;
    EXPECT_EQ(numbered_shape(back, t2), numbered_shape(s, t)) << quoted;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, OperatorProbes, ::testing::ValuesIn(test::kOperatorProbes));

TEST(WriterEdge, QuotedModeQuotesWhatWouldNotReadBack) {
  Store s;
  const TermRef y = s.make_atom("Y");
  const TermRef args[2] = {y, s.make_var(intern("Y"))};
  EXPECT_EQ(to_string(s, s.make_struct(intern("p"), args), {.quoted = true}), "p('Y',Y)");
  EXPECT_EQ(to_string(s, s.make_atom("."), {.quoted = true}), "'.'");
  const TermRef one[1] = {s.make_int(1)};
  EXPECT_EQ(to_string(s, s.make_struct(intern("[]"), one), {.quoted = true}), "'[]'(1)");
  EXPECT_EQ(to_string(s, s.make_var(intern("_")), {.number_vars = false}), "_");
}

// ---------------------------------------------------------------- limits --

TEST(ReaderLimits, IntegerLiteralsCoverExactlyTheInt64Range) {
  Store s;
  EXPECT_EQ(s.int_value(s.deref(parse_term("9223372036854775807", s).term)),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(s.int_value(s.deref(parse_term("-9223372036854775808", s).term)),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(parse_term("9223372036854775808", s), ParseError);
  EXPECT_THROW(parse_term("X = 99999999999999999999", s), ParseError);
  EXPECT_THROW(parse_term("-9223372036854775809", s), ParseError);
}

TEST(ReaderLimits, NestingDeeperThanTheLimitIsAParseError) {
  // parse_term reads `f(` ... `a` ... `)` at depth n + 1.
  auto nested = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) text += "f(";
    return text + "a" + std::string(static_cast<std::size_t>(n), ')');
  };
  Store s;
  EXPECT_NO_THROW(parse_term(nested(kMaxReadDepth - 1), s));
  EXPECT_THROW(parse_term(nested(kMaxReadDepth), s), ParseError);
  // A right-nested operator chain recurses like a compound.
  std::string chain = "a";
  for (int i = 0; i < kMaxReadDepth; ++i) chain += ",a";
  EXPECT_THROW(parse_term(chain, s), ParseError);
}

// ------------------------------------------------------------ edge cases --

TEST(ReaderEdge, ClauseDotRequiresLayout) {
  // `.` inside a functor name or list must not terminate the clause.
  Store s;
  Reader r("f(a). g(b).", s);
  EXPECT_EQ(r.all().size(), 2u);
}

TEST(ReaderEdge, EmptyInputYieldsNothing) {
  Store s;
  Reader r("   % only a comment\n", s);
  EXPECT_FALSE(r.next().has_value());
}

TEST(ReaderEdge, DeeplyNestedParens) {
  std::string text = "f(";
  for (int i = 0; i < 40; ++i) text += "g(";
  text += "x";
  for (int i = 0; i < 40; ++i) text += ")";
  text += ")";
  Store s;
  const TermRef t = parse_term(text, s).term;
  EXPECT_EQ(s.reachable_cells(t), 42u);
}

TEST(ReaderEdge, LongConjunctionChain) {
  std::string text = "h :- g0";
  for (int i = 1; i < 50; ++i) text += ", g" + std::to_string(i);
  Store s;
  const TermRef t = parse_term(text, s).term;
  EXPECT_TRUE(s.is_struct(s.deref(t)));
}

TEST(ReaderEdge, VarScopesDoNotLeakAcrossClauses) {
  Store s;
  Reader r("p(Same). q(Same).", s);
  const auto clauses = r.all();
  ASSERT_EQ(clauses.size(), 2u);
  const TermRef v1 = s.deref(s.arg(s.deref(clauses[0].term), 0));
  const TermRef v2 = s.deref(s.arg(s.deref(clauses[1].term), 0));
  EXPECT_NE(v1, v2);
  EXPECT_EQ(s.var_name(v1), s.var_name(v2));  // same *name*, different cell
}

TEST(WriterEdge, OperatorsReparenthesizeCorrectly) {
  // (1+2)*3 must print with parens, 1+(2*3) must not need them.
  Store s;
  const TermRef a = parse_term("(1+2)*3", s).term;
  EXPECT_EQ(to_string(s, a), "(1+2)*3");
  const TermRef b = parse_term("1+2*3", s).term;
  EXPECT_EQ(to_string(s, b), "1+2*3");
}

TEST(WriterEdge, NestedListsAndTails) {
  Store s;
  const TermRef t = parse_term("[[a],[b|X],c|Y]", s).term;
  EXPECT_EQ(to_string(s, t), "[[a],[b|X],c|Y]");
}

}  // namespace
}  // namespace blog::term
