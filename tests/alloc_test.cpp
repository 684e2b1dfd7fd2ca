// Heap traffic of the resolution step: global `operator new` calls per
// expanded node inside Interpreter::solve, after a warm-up solve of the
// same query. This binary replaces the global allocation functions with
// counting ones, which is why it is its own test executable: the count
// sees only this process.
//
// Renaming, compaction, loading and unification allocate nothing in
// steady state; what remains per node is a child's Chain link, the shared
// parent goal list and, for every node that crosses a frontier, its
// DetachedNode's cells, args and goals buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "blog/engine/interpreter.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, so that each allocation is paired with a free()
// through the same allocator (sanitizer runtimes check the pairing).
void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace blog {
namespace {

constexpr char kQueens[] = R"(
select(X,[X|T],T).
select(X,[H|T],[H|R]) :- select(X,T,R).
safe(_,[],_).
safe(Q,[Q1|Qs],D) :- Q =\= Q1, abs(Q-Q1) =\= D, D1 is D+1, safe(Q,Qs,D1).
qplace(Unplaced,[Q|Qs],Acc,Out) :-
  select(Q,Unplaced,Rest), safe(Q,Acc,1), qplace(Rest,Qs,[Q|Acc],Out).
qplace([],[],Acc,Acc).
queens7(Qs) :- qplace([1,2,3,4,5,6,7],Qs,[],_).
)";

constexpr char kNrev[] = R"(
app([],L,L).
app([H|T],L,[H|R]) :- app(T,L,R).
nrev([],[]).
nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).
)";

std::string int_list(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? "," : "") + std::to_string(v[i]);
  return s + "]";
}

/// Every placement of n non-attacking queens as a sorted list of `Q=[...]`
/// answer texts, each list in placement order (the program's order).
std::vector<std::string> queens_answers(int n) {
  std::vector<std::string> out;
  std::vector<int> q;
  auto place = [&](auto& self) -> void {
    if (static_cast<int>(q.size()) == n) {
      out.push_back("Q=" + int_list(q));
      return;
    }
    for (int v = 1; v <= n; ++v) {
      bool ok = true;
      for (std::size_t i = 0; i < q.size() && ok; ++i)
        ok = q[i] != v && std::abs(q[i] - v) != static_cast<int>(q.size() - i);
      if (!ok) continue;
      q.push_back(v);
      self(self);
      q.pop_back();
    }
  };
  place(place);
  std::sort(out.begin(), out.end());
  return out;
}

struct Measured {
  search::SearchResult result;
  double news_per_node = 0.0;
};

/// Solve `query` twice and count operator new calls during the second
/// solve only: the first warms the weight store and the interned symbols.
Measured measure(engine::Interpreter& ip, const char* label,
                 const std::string& query, const search::SearchOptions& opts) {
  const search::Query q = engine::parse_query(query);
  (void)ip.solve(q, opts);
  Measured m;
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  m.result = ip.solve(q, opts);
  const std::uint64_t news = g_news.load(std::memory_order_relaxed) - before;
  const std::uint64_t nodes = m.result.stats.nodes_expanded;
  m.news_per_node = nodes == 0 ? 0.0 : static_cast<double>(news) / nodes;
  std::printf("  %s: %llu operator new calls / %llu nodes = %.2f per node\n",
              label, static_cast<unsigned long long>(news),
              static_cast<unsigned long long>(nodes), m.news_per_node);
  return m;
}

search::SearchOptions options(search::Strategy s) {
  search::SearchOptions opts;
  opts.strategy = s;
  opts.expander.max_depth = 1u << 20;  // nrev's single chain is n²/2 deep
  return opts;
}

void expect_queens(search::Strategy s, double bound) {
  engine::Interpreter ip;
  ip.consult_string(kQueens);
  const Measured m = measure(ip, "queens7", "queens7(Q)", options(s));
  EXPECT_EQ(m.result.outcome, search::Outcome::Exhausted);
  EXPECT_EQ(engine::solution_texts(m.result), queens_answers(7));
  EXPECT_LE(m.news_per_node, bound);
}

void expect_nrev(search::Strategy s, double bound) {
  std::vector<int> v(200);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<int>((i * 37 + 11) % 1000);
  engine::Interpreter ip;
  ip.consult_string(kNrev);
  const Measured m = measure(ip, "nrev 200", "nrev(" + int_list(v) + ",R)", options(s));
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(m.result.outcome, search::Outcome::Exhausted);
  EXPECT_EQ(engine::solution_texts(m.result),
            std::vector<std::string>{"R=" + int_list(v)});
  EXPECT_LE(m.news_per_node, bound);
}

TEST(AllocPerNode, Queens7BestFirst) {
  expect_queens(search::Strategy::BestFirst, 8.0);
}

TEST(AllocPerNode, Queens7DepthFirst) {
  expect_queens(search::Strategy::DepthFirst, 4.0);
}

TEST(AllocPerNode, Nrev200BestFirst) {
  expect_nrev(search::Strategy::BestFirst, 4.0);
}

TEST(AllocPerNode, Nrev200DepthFirst) {
  expect_nrev(search::Strategy::DepthFirst, 4.0);
}

}  // namespace
}  // namespace blog
