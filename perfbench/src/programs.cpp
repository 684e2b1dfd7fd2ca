#include "programs.hpp"

#include <algorithm>
#include <functional>

namespace perfbench {

Answers canonical(Answers a) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

// --------------------------------------------------------------- company --

Company::Company(blog::Rng& rng, int employees, int departments)
    : departments_(departments), dept_(employees), band_(employees) {
  std::vector<int> order(employees);
  for (int i = 0; i < employees; ++i) order[i] = i;
  rng.shuffle(order);
  // The i-th employee in seeded order joins department i % D as that
  // department's (i / D)-th member; members cycle through the four bands.
  for (int i = 0; i < employees; ++i) {
    dept_[order[i]] = i % departments;
    band_[order[i]] = (i / departments) % 4;
  }
}

const char* Company::band_name(int b) {
  static const char* kBands[] = {"junior", "mid", "senior", "staff"};
  return kBands[b];
}

std::string Company::text() const {
  std::string s;
  s.reserve(dept_.size() * 64);
  s += "boss(E,M) :- works_in(E,D), manages(M,D).\n";
  s += "peer(A,B) :- works_in(A,D), works_in(B,D).\n";
  for (int d = 0; d < departments_; ++d)
    s += "manages(m" + std::to_string(d) + ",d" + std::to_string(d) + ").\n";
  for (std::size_t e = 0; e < dept_.size(); ++e) {
    const std::string emp = "e" + std::to_string(e);
    s += "works_in(" + emp + ",d" + std::to_string(dept_[e]) + ").\n";
    s += "salary_band(" + emp + "," + band_name(band_[e]) + ").\n";
  }
  return s;
}

Case Company::lookup(int kind, int employee) const {
  const std::string e = "e" + std::to_string(employee);
  const std::string d = std::to_string(dept_[employee]);
  const std::string band = band_name(band_[employee]);
  switch (kind) {
    case 0: return {"works_in(" + e + ",D)", {"D=d" + d}};
    case 1: return {"boss(" + e + ",M)", {"M=m" + d}};
    case 2: return {"salary_band(" + e + ",S)", {"S=" + band}};
    default:
      return {"works_in(" + e + ",D), salary_band(" + e + ",S)",
              {"D=d" + d + ",S=" + band}};
  }
}

Answers Company::selected(int department, int band) const {
  Answers out;
  for (std::size_t e = 0; e < dept_.size(); ++e)
    if (dept_[e] == department && (band < 0 || band_[e] == band))
      out.push_back("A=e" + std::to_string(e));
  return canonical(std::move(out));
}

Case Company::selection(int department, int band) const {
  return {std::string("salary_band(A,") + band_name(band) + "), works_in(A,d" +
              std::to_string(department) + ")",
          selected(department, band)};
}

// ---------------------------------------------------------------- queens --

std::string queens_program(const std::vector<int>& sizes) {
  std::string s = R"(
select(X,[X|T],T).
select(X,[H|T],[H|R]) :- select(X,T,R).
safe(_,[],_).
safe(Q,[Q1|Qs],D) :- Q =\= Q1, abs(Q-Q1) =\= D, D1 is D+1, safe(Q,Qs,D1).
qplace(Unplaced,[Q|Qs],Acc,Out) :-
  select(Q,Unplaced,Rest), safe(Q,Acc,1), qplace(Rest,Qs,[Q|Acc],Out).
qplace([],[],Acc,Acc).
)";
  for (int n : sizes) {
    std::string list = "[";
    for (int i = 1; i <= n; ++i) list += std::to_string(i) + (i < n ? "," : "]");
    s += "queens" + std::to_string(n) + "(Qs) :- qplace(" + list + ",Qs,[],_).\n";
  }
  return s;
}

namespace {

std::string int_list(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + std::to_string(v[i]);
  return s + "]";
}

}  // namespace

Answers queens_answers(int n) {
  Answers out;
  std::vector<int> q;
  std::vector<bool> used(n + 1, false);
  std::function<void()> place = [&] {
    if (static_cast<int>(q.size()) == n) {
      out.push_back("Q=" + int_list(q));
      return;
    }
    for (int v = 1; v <= n; ++v) {
      if (used[v]) continue;
      bool ok = true;
      for (std::size_t i = 0; i < q.size() && ok; ++i)
        ok = std::abs(q[i] - v) != static_cast<int>(q.size() - i);
      if (!ok) continue;
      used[v] = true;
      q.push_back(v);
      place();
      q.pop_back();
      used[v] = false;
    }
  };
  place();
  return canonical(std::move(out));
}

// ------------------------------------------------------------------- dag --

Case dag_paths(int layers, int width, int from, int to) {
  auto node = [](int l, int i) { return "n" + std::to_string(l) + "_" + std::to_string(i); };
  Case c;
  c.text = "path(" + node(0, from) + "," + node(layers, to) + ",P)";
  std::vector<int> mid(layers - 1, 0);
  for (;;) {
    std::string p = "P=[" + node(0, from);
    for (int l = 1; l < layers; ++l) p += "," + node(l, mid[l - 1]);
    c.expected.push_back(p + "," + node(layers, to) + "]");
    int l = layers - 2;
    while (l >= 0 && ++mid[l] == width) mid[l--] = 0;
    if (l < 0) break;
  }
  c.expected = canonical(std::move(c.expected));
  return c;
}

// ------------------------------------------------------------------ nrev --

std::string nrev_program() {
  return "app([],L,L).\n"
         "app([H|T],L,[H|R]) :- app(T,L,R).\n"
         "nrev([],[]).\n"
         "nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).\n";
}

Case nrev_case(blog::Rng& rng, int length) {
  std::vector<int> v(length);
  for (int& x : v) x = static_cast<int>(rng.below(1000));
  Case c;
  c.text = "nrev(" + int_list(v) + ",R)";
  std::reverse(v.begin(), v.end());
  c.expected = {"R=" + int_list(v)};
  return c;
}

// ---------------------------------------------------------------- family --

std::vector<Case> family_cases() {
  return {{"gf(sam,G)", {"G=den", "G=doug"}},
          {"gf(curt,G)", {"G=john"}},
          {"gf(dan,G)", {"G=john"}},
          {"gf(X,john)", {"X=curt", "X=dan"}}};
}

Case members_with_queens(const Company& c, int department, int n) {
  Case out;
  out.text = "works_in(A,d" + std::to_string(department) + "), queens" + std::to_string(n) + "(Q)";
  const Answers qs = queens_answers(n);
  for (const std::string& a : c.members(department))
    for (const std::string& q : qs) out.expected.push_back(a + "," + q);
  out.expected = canonical(std::move(out.expected));
  return out;
}

}  // namespace perfbench
