// Term-syntax corpora shared by the reader/writer tests (reader2_test) and
// the cache-key tests (service_test).
#pragma once

namespace blog::test {

/// A query text and the writer's (unquoted) rendering of its term. Each
/// probe exercises one rule that makes the rendering read back as the
/// same term: operator form for every table row, a space only where two
/// symbol-char tokens would glue, brackets for prefix-operator atoms
/// before an operator, functional notation where a bare prefix operator
/// would misread its operand.
struct OperatorProbe {
  const char* text;
  const char* rendered;
};

inline constexpr OperatorProbe kOperatorProbes[] = {
    {"X = (a \\== b)", "X=(a\\==b)"},
    {"X = 1 - -1", "X=1- -1"},
    {"X = -(1)", "X= -(1)"},
    {"X = 1 * -2", "X=1* -2"},
    {"X = ((\\+a) = b)", "X=((\\+a)=b)"},
    {"Y = -5", "Y= -5"},
    {"X = -9223372036854775808", "X= -9223372036854775808"},
    {"X = (-)", "X= -"},
    {"(-) = a", "(-)=a"},
    {"X = ((-) = a)", "X=((-)=a)"},
    {"X = - - a", "X= - -a"},
    {"X = -(-1)", "X= -(-1)"},
    {"X = -(-(1))", "X= - -(1)"},
    {"X = -(a*b)", "X= -(a*b)"},
    {"X = \\+ ((a, b))", "X=(\\+((a,b)))"},
    {"X = (a :- b)", "X=(a:-b)"},
    {"X = [-, +, \\+]", "X=[-,+,\\+]"},
    {"X = 1 - (2 - 3)", "X=1-(2-3)"},
};

/// Clause-shaped texts whose print→parse→print is a fixpoint.
inline constexpr const char* kFixpointCorpus[] = {
    "f(X,g(Y,[1,2|T]))",
    "a :- b, c, d",
    "append([H|T],L,[H|R]) :- append(T,L,R)",
    "X is (A+B)*(C-D)",
    "p((a,b),c)",
    "f(-1,-2)",
    "[[1,2],[3,[4]]]",
    "N1 is N-1",
    "safe(Q,[Q1|Qs],D) :- Q =\\= Q1, abs(Q-Q1) =\\= D",
    "x(A) :- A = [_,_|_]",
    "'odd atom'('with space',B)",
};

}  // namespace blog::test
