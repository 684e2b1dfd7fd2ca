// Second-wave AND-parallel tests: join algebra edge cases, executor
// corner cases, and the fork/join stress storm on one shared pool.
#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <thread>

#include "blog/andp/exec.hpp"

namespace blog::andp {
namespace {

using engine::Interpreter;

Relation rel(std::vector<Symbol> schema,
             std::vector<std::vector<std::string>> rows) {
  return Relation{std::move(schema), std::move(rows)};
}

TEST(JoinEdge, EmptyLeftRelation) {
  const auto r = rel({intern("X"), intern("Y")}, {});
  const auto s = rel({intern("Y"), intern("Z")}, {{"1", "a"}});
  EXPECT_TRUE(nested_loop_join(r, s, nullptr).rows.empty());
  EXPECT_TRUE(hash_join(r, s, nullptr).rows.empty());
  EXPECT_TRUE(semi_join_then_join(r, s, nullptr).rows.empty());
}

TEST(JoinEdge, EmptyRightRelation) {
  const auto r = rel({intern("X"), intern("Y")}, {{"a", "1"}});
  const auto s = rel({intern("Y"), intern("Z")}, {});
  EXPECT_TRUE(hash_join(r, s, nullptr).rows.empty());
  // Semi-join reduce against empty marks nothing.
  EXPECT_TRUE(semi_join_reduce(r, s, nullptr).rows.empty());
}

TEST(JoinEdge, AllColumnsShared) {
  const auto r = rel({intern("X"), intern("Y")}, {{"a", "1"}, {"b", "2"}});
  const auto s = rel({intern("X"), intern("Y")}, {{"a", "1"}, {"c", "3"}});
  const auto j = hash_join(r, s, nullptr);
  EXPECT_EQ(j.schema.size(), 2u);  // no private columns on either side
  ASSERT_EQ(j.rows.size(), 1u);
  EXPECT_EQ(j.rows[0], (std::vector<std::string>{"a", "1"}));
}

TEST(JoinEdge, DuplicateRowsMultiply) {
  const auto r = rel({intern("X")}, {{"k"}, {"k"}});
  const auto s = rel({intern("X"), intern("Y")}, {{"k", "1"}, {"k", "2"}});
  const auto j = hash_join(r, s, nullptr);
  EXPECT_EQ(j.rows.size(), 4u);  // bag semantics, like repeated solutions
}

TEST(JoinEdge, ColumnLookup) {
  const auto r = rel({intern("A"), intern("B")}, {});
  EXPECT_EQ(r.column(intern("A")), 0);
  EXPECT_EQ(r.column(intern("B")), 1);
  EXPECT_EQ(r.column(intern("C")), -1);
}

TEST(JoinEdge, SeparatorSafeKeys) {
  // Values containing the key separator must not collide: ("a\x1f","b")
  // vs ("a","\x1fb") style confusion.
  const auto r = rel({intern("X"), intern("Y")}, {{"a\x1f", "b"}});
  const auto s = rel({intern("X"), intern("Y")}, {{"a", "\x1f b"}});
  EXPECT_TRUE(hash_join(r, s, nullptr).rows.empty());
}

// --------------------------------------------------------------- executor --

TEST(AndExec2, SingleGoalQueryWorks) {
  Interpreter ip;
  ip.consult_string("p(1). p(2).");
  const auto res = solve_and_parallel(ip, "p(X)");
  EXPECT_EQ(res.solutions, (std::vector<std::string>{"X=1", "X=2"}));
  EXPECT_EQ(res.groups.size(), 1u);
}

TEST(AndExec2, GroundQueryAnswersItsOwnInstance) {
  // A conjunction that names no variable answers with its own instance,
  // as the sequential engine does (engine::parse_query).
  Interpreter ip;
  ip.consult_string("p(1). q(2).");
  const auto res = solve_and_parallel(ip, "p(1), q(2)");
  EXPECT_EQ(res.solutions, (std::vector<std::string>{"p(1),q(2)"}));
}

TEST(AndExec2, ThreeWayJoinChain) {
  Interpreter ip;
  ip.consult_string(R"(
    r(1,a). r(2,b).
    s(a,x). s(b,y). s(c,z).
    t(x,final1). t(y,final2).
  )");
  const auto res = solve_and_parallel(ip, "r(A,B), s(B,C), t(C,D)");
  Interpreter seq;
  seq.consult_string(R"(
    r(1,a). r(2,b).
    s(a,x). s(b,y). s(c,z).
    t(x,final1). t(y,final2).
  )");
  EXPECT_EQ(res.solutions,
            engine::solution_texts(seq.solve("r(A,B), s(B,C), t(C,D)")));
  EXPECT_EQ(res.solutions.size(), 2u);
}

TEST(AndExec2, NonGroundGroupFallsBackAndStaysCorrect) {
  // append with an open tail produces non-ground per-goal solutions; the
  // join path must detect this and fall back to sequential resolution.
  Interpreter ip;
  ip.consult_string(R"(
    append([],L,L).
    append([H|T],L,[H|R]) :- append(T,L,R).
    one(x).
  )");
  const auto res = solve_and_parallel(ip, "append(A,B,[1,2]), one(C)");
  Interpreter seq;
  seq.consult_string(R"(
    append([],L,L).
    append([H|T],L,[H|R]) :- append(T,L,R).
    one(x).
  )");
  EXPECT_EQ(res.solutions,
            engine::solution_texts(seq.solve("append(A,B,[1,2]), one(C)")));
}

// A shared-variable group whose per-goal answers are not ground is
// re-solved whole by the sequential engine.
constexpr const char* kOpenTerms = "p(a,f(_)). p(b,g). q(f(1)). q(g).";

TEST(AndExec2, NonGroundSharedGroupIsResolvedWhole) {
  const std::vector<std::string> expected = {"X=a,Y=f(1)", "X=b,Y=g"};
  Interpreter seq;
  seq.consult_string(kOpenTerms);
  ASSERT_EQ(engine::solution_texts(seq.solve("p(X,Y), q(Y)")), expected);
  Interpreter ip;
  ip.consult_string(kOpenTerms);
  const auto res = solve_and_parallel(ip, "p(X,Y), q(Y)");
  EXPECT_EQ(res.outcome, search::Outcome::Exhausted);
  EXPECT_EQ(res.solutions, expected);
  EXPECT_EQ(res.forked_items, 2u);  // one item per goal, then the re-solve
  EXPECT_EQ(res.join_resolves, 1u);
}

TEST(AndExec2, NonGroundReSolveStaysInsideTheNodeBudget) {
  // The re-solve gets what the job left of the budget. One node short of
  // the unbounded total, it cannot finish: an honest outcome, no answers.
  AndParallelOptions o;
  o.search.update_weights = false;
  o.workers = 1;
  Interpreter ip;
  ip.consult_string(kOpenTerms);
  const std::size_t total =
      solve_and_parallel(ip, "p(X,Y), q(Y)", o).sequential_nodes;
  o.search.limits.max_nodes = total - 1;
  const auto res = solve_and_parallel(ip, "p(X,Y), q(Y)", o);
  EXPECT_EQ(res.outcome, search::Outcome::BudgetExceeded);
  EXPECT_TRUE(res.solutions.empty());
  EXPECT_EQ(res.join_resolves, 0u);
}

TEST(AndExec2, ShedCallReturnsCancelledThenTheOracleSet) {
  // A one-worker pool that holds no line (queue_limit 0) refuses the AND
  // call's job while its worker is busy: Cancelled, no answers, no join.
  Interpreter ip;
  ip.consult_string("p(1). p(2). q(a). q(b).");
  Interpreter seq;
  seq.consult_string("p(1). p(2). q(a). q(b).");
  const auto expected = engine::solution_texts(seq.solve("p(X), q(Y)"));

  parallel::ExecutorOptions eo;
  eo.workers = 1;
  eo.queue_limit = 0;
  parallel::Executor pool(eo);
  // The blocker pattern: the lone worker stays inside the job's completion
  // callback until the latch opens.
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};
  parallel::JobRequest blocker;
  blocker.program = &ip.program();
  blocker.weights = &ip.weights();
  blocker.builtins = &ip.builtins();
  blocker.query = ip.parse_query("p(X)");
  blocker.on_complete = [&](const parallel::ParallelResult&) {
    entered = true;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return open; });
  };
  const parallel::JobTicket held = pool.submit(std::move(blocker));
  ASSERT_TRUE(held.valid());
  while (!entered) std::this_thread::yield();

  AndParallelOptions o;
  o.executor = &pool;
  o.workers = 1;
  const auto shed = solve_and_parallel(ip, "p(X), q(Y)", o);
  EXPECT_EQ(shed.outcome, search::Outcome::Cancelled);
  EXPECT_TRUE(shed.solutions.empty());
  EXPECT_EQ(shed.join_resolves, 0u);
  EXPECT_EQ(pool.stats().rejected, 1u);

  {
    std::lock_guard lock(mu);
    open = true;
  }
  cv.notify_all();
  held.wait();
  while (pool.stats().busy_workers != 0) std::this_thread::yield();
  const auto res = solve_and_parallel(ip, "p(X), q(Y)", o);
  EXPECT_EQ(res.outcome, search::Outcome::Exhausted);
  EXPECT_EQ(res.solutions, expected);
  EXPECT_EQ(res.join_resolves, 1u);
}

TEST(AndExec2, SharedVarThroughBuiltinStaysSequential) {
  Interpreter ip;
  ip.consult_string("n(1). n(2). n(3).");
  const auto res = solve_and_parallel(ip, "n(X), n(Y), X < Y");
  Interpreter seq;
  seq.consult_string("n(1). n(2). n(3).");
  EXPECT_EQ(res.solutions,
            engine::solution_texts(seq.solve("n(X), n(Y), X < Y")));
  EXPECT_EQ(res.solutions.size(), 3u);
}

TEST(AndExec2, SpeedupNeverBelowOne) {
  Interpreter ip;
  ip.consult_string("p(1). q(2). r(3).");
  const auto res = solve_and_parallel(ip, "p(A), q(B), r(C)");
  EXPECT_GE(res.and_speedup(), 1.0);
}

// ------------------------------------------------------------------ storm --
// TSan stress (run in the CI tsan job's isolated step list): an 8-worker
// Executor pool under a storm of concurrent mixed AND/OR conjunctions.
// Every query's forked items run as child work items of one pool job
// whose answer sink fills the items' relations without a lock; every
// query must run to exhaustion, combine once and return the oracle's set.

TEST(AndOrStorm, EightWorkerMixedQueriesMatchTheOracle) {
  const char* kProgram = R"(
    p(1). p(2). p(3).
    q(a). q(b).
    e(1,a). e(2,b). e(3,c).
    f(a,x). f(b,y). f(c,x).
    g(x,u). g(y,v).
    edge(n1,n2). edge(n2,n3). edge(n1,n3). edge(n3,n4).
    reach(X,X).
    reach(X,Z) :- edge(X,Y), reach(Y,Z).
  )";
  // Mixed shapes: pure cross product (AND), a shared-variable semi-join
  // chain, a recursive OR-heavy goal beside an AND sibling, single-goal OR.
  const std::vector<std::string> kQueries = {
      "p(X), q(Y)",
      "e(A,B), f(B,C), g(C,D)",
      "reach(n1,R), p(N)",
      "reach(n1,R)",
  };

  Interpreter ip;
  ip.consult_string(kProgram);
  // Expected sets, computed sequentially up front.
  std::vector<std::vector<std::string>> expected;
  {
    Interpreter seq;
    seq.consult_string(kProgram);
    search::SearchOptions so;
    so.update_weights = false;
    for (const auto& q : kQueries)
      expected.push_back(engine::solution_texts(seq.solve(q, so)));
  }

  parallel::ExecutorOptions eo;
  eo.workers = 8;
  eo.numa_aware = false;
  parallel::Executor pool(eo);

  constexpr int kClients = 4;
  constexpr int kRounds = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t qi =
            static_cast<std::size_t>(c + round) % kQueries.size();
        AndParallelOptions o;
        o.search.update_weights = false;
        o.executor = &pool;
        o.workers = 4;
        const auto res = solve_and_parallel(ip, kQueries[qi], o);
        if (res.outcome != search::Outcome::Exhausted ||
            res.join_resolves != 1 ||
            engine::solution_texts(res.solutions) != expected[qi])
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace blog::andp
