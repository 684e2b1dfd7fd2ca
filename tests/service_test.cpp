// QueryService serving layer: snapshot isolation, answer cache, budgets,
// admission, and the supporting fixes (O(1) frontier min_bound, deduplicated
// solution_texts). The *Stress tests are the ThreadSanitizer targets: N
// threads solving while one thread consults.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "blog/engine/interpreter.hpp"
#include "blog/search/frontier.hpp"
#include "blog/service/service.hpp"
#include "blog/term/reader.hpp"
#include "blog/workloads/workloads.hpp"
#include "term_corpus.hpp"

using namespace blog;
using service::QueryBudget;
using service::QueryRequest;
using service::QueryService;
using service::QueryStatus;

namespace {

std::vector<std::string> cold_texts(const std::string& program,
                                    const std::string& query) {
  engine::Interpreter ip;
  ip.consult_string(program);
  return engine::solution_texts(ip.solve(query, {.update_weights = false}));
}

}  // namespace

// ----------------------------------------------------------------- basics --

TEST(Service, AnswersMatchColdInterpreter) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  const auto r = svc.query("gf(sam,G)");
  EXPECT_EQ(r.status, QueryStatus::Ok);
  EXPECT_EQ(r.outcome, search::Outcome::Exhausted);
  EXPECT_FALSE(r.from_cache);
  EXPECT_EQ(r.answers, cold_texts(workloads::figure1_family(), "gf(sam,G)"));
}

TEST(Service, ParseErrorReported) {
  QueryService svc;
  const auto r = svc.query("gf(sam,");
  EXPECT_EQ(r.status, QueryStatus::ParseError);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(svc.stats().parse_errors, 1u);
}

TEST(Service, ParallelWorkersMatchSequential) {
  const std::string dag = workloads::layered_dag(4, 3);
  QueryService svc;
  svc.consult(dag);
  QueryRequest req;
  req.text = "path(n0_0,Z,P)";
  req.workers = 4;
  const auto par = svc.query(req);
  EXPECT_EQ(par.status, QueryStatus::Ok);
  EXPECT_EQ(par.answers, cold_texts(dag, "path(n0_0,Z,P)"));
}

// ------------------------------------------------------------------ cache --

TEST(ServiceCache, HitIsByteIdenticalAcrossStrategies) {
  QueryService svc;
  svc.consult(workloads::figure1_family());

  QueryRequest cold;
  cold.text = "gf(sam,G)";
  cold.strategy = search::Strategy::DepthFirst;
  const auto first = svc.query(cold);
  EXPECT_FALSE(first.from_cache);

  // Different whitespace AND different strategy: same canonical key, same
  // complete answer set — served from cache, byte-identical.
  QueryRequest warm;
  warm.text = "gf( sam ,G )";
  warm.strategy = search::Strategy::BestFirst;
  const auto second = svc.query(warm);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.answers, first.answers);
  EXPECT_EQ(second.answers, cold_texts(workloads::figure1_family(), "gf(sam,G)"));
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(ServiceCache, ConsultInvalidates) {
  QueryService svc;
  svc.consult("f(a,b).");
  const auto r1 = svc.query("f(X,Y)");
  EXPECT_EQ(r1.answers, (std::vector<std::string>{"X=a,Y=b"}));
  EXPECT_TRUE(svc.query("f(X,Y)").from_cache);

  svc.consult("f(b,c).");  // epoch bump drops the entry
  const auto r2 = svc.query("f(X,Y)");
  EXPECT_FALSE(r2.from_cache);
  EXPECT_EQ(r2.answers, (std::vector<std::string>{"X=a,Y=b", "X=b,Y=c"}));
  EXPECT_GT(r2.epoch, r1.epoch);
}

TEST(ServiceCache, AnonymousVarDoesNotCollideWithNamedUnderscoreVar) {
  // An anonymous `_` can render like a variable literally named _G<n>
  // inside a goal; the cache key includes the answer template, which
  // differs (named variables are reported, anonymous ones are not).
  QueryService svc;
  svc.consult("p(a,b).");
  const auto anon = svc.query("p(_,X)");
  EXPECT_EQ(anon.answers, (std::vector<std::string>{"X=b"}));
  const auto named = svc.query("p(_G0,X)");
  EXPECT_FALSE(named.from_cache);
  EXPECT_EQ(named.answers, (std::vector<std::string>{"_G0=a,X=b"}));
  // Each still hits its own entry.
  EXPECT_TRUE(svc.query("p(_,X)").from_cache);
  EXPECT_TRUE(svc.query("p(_G0,X)").from_cache);
}

TEST(ServiceCache, EndSessionInvalidates) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  svc.query("gf(sam,G)");
  EXPECT_TRUE(svc.query("gf(sam,G)").from_cache);
  svc.end_session();
  EXPECT_FALSE(svc.query("gf(sam,G)").from_cache);
}

TEST(ServiceCache, TruncatedResultsAreNotCached) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  QueryBudget tiny;
  tiny.max_nodes = 2;
  const auto r1 = svc.query("gf(sam,G)", tiny);
  EXPECT_EQ(r1.status, QueryStatus::Truncated);
  EXPECT_EQ(r1.outcome, search::Outcome::BudgetExceeded);
  // The partial set must not satisfy the next (unbudgeted) query.
  const auto r2 = svc.query("gf(sam,G)");
  EXPECT_FALSE(r2.from_cache);
  EXPECT_EQ(r2.status, QueryStatus::Ok);
}

TEST(ServiceCache, LruEvictsAtCapacity) {
  service::ServiceOptions o;
  o.cache_shards = 1;
  o.cache_capacity_per_shard = 2;
  QueryService svc(o);
  svc.consult("f(a,b). g(c,d). h(e,f).");
  svc.query("f(X,Y)");
  svc.query("g(X,Y)");
  svc.query("h(X,Y)");  // evicts f
  EXPECT_FALSE(svc.query("f(X,Y)").from_cache);
  const auto cs = svc.stats().cache;
  EXPECT_EQ(cs.evictions, 2u);  // h evicted f, re-inserted f evicted g
}

TEST(ServiceCache, KeysDoNotAliasDistinctQueries) {
  // Each pair once shared a key, so whichever ran second was answered from
  // the other's cache entry: `-(1)` rendered like the integer -1, and the
  // atom 'Y' like the variable Y. Keys are now quoted text that reads back.
  struct Case {
    const char* text;
    std::vector<std::string> answers;
  };
  const std::string program = "p(-1,int). p(-(1),struct). q('Y',1). q(2,2).";
  const std::pair<Case, Case> pairs[] = {
      {{"p(-(1),K)", {"K=struct"}}, {"p(-1,K)", {"K=int"}}},
      {{"q('Y',Y)", {"Y=1"}}, {"q(Y,Y)", {"Y=2"}}},
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(QueryService::canonical_key(a.text), QueryService::canonical_key(b.text));
    for (const bool a_first : {true, false}) {
      QueryService svc;
      svc.consult(program);
      const Case& first = a_first ? a : b;
      const Case& second = a_first ? b : a;
      EXPECT_EQ(svc.query(first.text).answers, first.answers) << first.text;
      const auto r = svc.query(second.text);
      EXPECT_FALSE(r.from_cache) << second.text;
      EXPECT_EQ(r.answers, second.answers) << second.text;
      EXPECT_TRUE(svc.query(first.text).from_cache) << first.text;
    }
  }
}

TEST(ServiceCache, KeyGoalTextRekeysToTheSameKey) {
  // The goals part of a key is itself a query text for the same goals and
  // template (` $ ` never occurs outside quotes in quoted text).
  std::vector<std::string> corpus(std::begin(test::kFixpointCorpus),
                                  std::end(test::kFixpointCorpus));
  for (const auto& probe : test::kOperatorProbes) corpus.emplace_back(probe.text);
  for (const char* q : {"p('Y',Y)", "p(-(1),K)", "p(_,X), q(X,_)", "(a;b), c", "a;(b,c)",
                        "X = 'it''s', Y = '.'", "\\+ p(X), X \\== 1"})
    corpus.emplace_back(q);
  for (const std::string& text : corpus) {
    const std::string key = QueryService::canonical_key(text);
    const std::size_t split = key.find(" $ ");
    ASSERT_NE(split, std::string::npos) << key;
    EXPECT_EQ(QueryService::canonical_key(key.substr(0, split)), key) << text;
  }
  // Conjunct grouping stays in the key: `;` binds looser than `,`.
  EXPECT_NE(QueryService::canonical_key("(a;b), c"), QueryService::canonical_key("a;(b,c)"));
}

// ------------------------------------------------------ hostile input --

TEST(ServiceLimits, NestingAtTheReaderLimitIsServedOnePastIsAParseError) {
  // `X = f(...f(a)...)`: the reader takes the whole query at depth 1, the
  // right side of `=` at depth 2, and each argument one level deeper.
  auto nested = [](int depth) {
    const auto n = static_cast<std::size_t>(depth - 2);
    std::string text = "X = ";
    for (std::size_t i = 0; i < n; ++i) text += "f(";
    return text + "a" + std::string(n, ')');
  };
  QueryService svc;
  svc.consult("p.");
  QueryRequest at;
  at.text = nested(term::kMaxReadDepth);
  const auto ok = svc.submit(at).wait();
  EXPECT_EQ(ok.status, QueryStatus::Ok) << ok.error;
  ASSERT_EQ(ok.answers.size(), 1u);
  EXPECT_EQ(ok.answers[0].size(), at.text.size() - 2);  // "X = " less its spaces

  QueryRequest past;
  past.text = nested(term::kMaxReadDepth + 1);
  const auto rejected = svc.submit(past).wait();
  EXPECT_EQ(rejected.status, QueryStatus::ParseError);
  EXPECT_NE(rejected.error.find("nested deeper"), std::string::npos) << rejected.error;
}

TEST(ServiceLimits, IntegersReadBackOverTheWholeInt64Range) {
  QueryService svc;
  svc.consult("p.");
  for (const char* text : {"X = 99999999999999999999", "X = 9223372036854775808"}) {
    QueryRequest req;
    req.text = text;
    EXPECT_EQ(svc.submit(req).wait().status, QueryStatus::ParseError) << text;
  }
  // Both ends of the range print as text that reads back, even as operands.
  QueryRequest req;
  req.text = "X = -9223372036854775808, Y = 9223372036854775807, Z = 1 - X";
  const auto r = svc.submit(req).wait();
  ASSERT_EQ(r.status, QueryStatus::Ok) << r.error;
  const std::vector<std::string> want{
      "X= -9223372036854775808,Y=9223372036854775807,Z=1- -9223372036854775808"};
  EXPECT_EQ(r.answers, want);
  term::Store s;
  EXPECT_NO_THROW(term::parse_term(want[0], s));
}

// -------------------------------------------------------------- snapshots --

TEST(ServiceSnapshot, ConsultDoesNotTouchPublishedView) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  const auto before = svc.snapshot();
  const auto clauses_before = before->program->size();

  svc.consult("f(larry,newkid).");  // a new gf(sam,newkid) derivation

  // The old view is frozen: same object, same size, still solvable.
  EXPECT_EQ(before->program->size(), clauses_before);
  search::SearchEngine old_eng(*before->program, svc.weights(),
                               &svc.builtins());
  const auto old_r =
      old_eng.solve(engine::parse_query("gf(sam,G)"), {.update_weights = false});
  EXPECT_EQ(engine::solution_texts(old_r),
            (std::vector<std::string>{"G=den", "G=doug"}));

  // The service sees the new view at a higher epoch.
  const auto now = svc.snapshot();
  EXPECT_GT(now->epoch, before->epoch);
  EXPECT_EQ(now->program->size(), clauses_before + 1);
  const auto r = svc.query("gf(sam,G)");
  EXPECT_EQ(r.answers,
            (std::vector<std::string>{"G=den", "G=doug", "G=newkid"}));
}

TEST(ServiceSnapshot, WarmBootFromInterpreterExport) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  QueryService svc(ip);
  const auto r = svc.query("gf(sam,G)");
  EXPECT_EQ(r.answers, (std::vector<std::string>{"G=den", "G=doug"}));
  // The export is detached: consulting the interpreter afterwards does not
  // change what the service serves.
  ip.consult_string("f(larry,newkid).");
  EXPECT_EQ(svc.query("gf(sam,G)").answers,
            (std::vector<std::string>{"G=den", "G=doug"}));
}

TEST(ServiceSnapshot, ParseErrorPublishesNothing) {
  QueryService svc;
  svc.consult("f(a,b).");
  const auto before = svc.snapshot();
  EXPECT_THROW(svc.consult("broken(("), term::ParseError);
  const auto after = svc.snapshot();
  EXPECT_EQ(after->epoch, before->epoch);
  EXPECT_EQ(after->program->size(), before->program->size());
}

// ---------------------------------------------------------------- budgets --

TEST(ServiceBudget, NodeBudgetReportsBudgetExceeded) {
  QueryService svc;
  svc.consult(workloads::layered_dag(4, 3));
  QueryBudget b;
  b.max_nodes = 5;
  const auto r = svc.query("path(n0_0,Z,P)", b);
  EXPECT_EQ(r.status, QueryStatus::Truncated);
  EXPECT_EQ(r.outcome, search::Outcome::BudgetExceeded);
  EXPECT_LE(r.nodes_expanded, 5u);
  EXPECT_EQ(svc.stats().truncated, 1u);
}

TEST(ServiceBudget, SolutionCapReportsSolutionLimit) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  QueryBudget b;
  b.max_solutions = 1;
  const auto r = svc.query("gf(sam,G)", b);
  EXPECT_EQ(r.status, QueryStatus::Truncated);
  EXPECT_EQ(r.outcome, search::Outcome::SolutionLimit);
  EXPECT_EQ(r.answers.size(), 1u);
}

TEST(ServiceBudget, DepthCutoffIsTruncatedAndNeverCached) {
  // `p(X),...,p(X)` against `p(1).` resolves one conjunct per level, so
  // 1,000 conjuncts run into the default depth limit of 512.
  const auto conjuncts = [](int n) {
    std::string q = "p(X)";
    for (int i = 1; i < n; ++i) q += ",p(X)";
    return q;
  };
  for (const unsigned workers : {1u, 4u}) {
    QueryService svc;
    svc.consult("p(1).");
    const auto shallow = svc.query({.text = conjuncts(100), .workers = workers});
    EXPECT_EQ(shallow.status, QueryStatus::Ok) << "workers " << workers;
    EXPECT_EQ(shallow.answers, std::vector<std::string>{"X=1"});
    for (int round = 0; round < 2; ++round) {
      const auto deep = svc.query({.text = conjuncts(1000), .workers = workers});
      EXPECT_EQ(deep.status, QueryStatus::Truncated) << "workers " << workers;
      EXPECT_EQ(deep.outcome, search::Outcome::Exhausted);
      EXPECT_FALSE(deep.from_cache);
      EXPECT_NE(deep.error.find("depth limit 512"), std::string::npos)
          << deep.error;
    }
    EXPECT_EQ(svc.stats().truncated, 2u);
    EXPECT_EQ(svc.stats().cache_hits, 0u);
  }
}

TEST(SearchDeadline, PassedDeadlineStopsImmediately) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  search::SearchOptions o;
  o.limits.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const auto r = ip.solve("gf(sam,G)", o);
  EXPECT_EQ(r.outcome, search::Outcome::BudgetExceeded);
  EXPECT_EQ(r.stats.nodes_expanded, 0u);
  EXPECT_FALSE(r.exhausted);
}

TEST(SearchDeadline, ParallelDeadlineReportsBudgetExceeded) {
  engine::Interpreter ip;
  ip.consult_string(workloads::layered_dag(5, 3));
  parallel::ParallelOptions po;
  po.workers = 2;
  po.update_weights = false;
  po.limits.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_EQ(r.outcome, search::Outcome::BudgetExceeded);
  EXPECT_FALSE(r.exhausted);
}

// --------------------------------------------- O(1) frontier min_bound fix --

TEST(FrontierMinBound, MatchesScanOnAllPolicies) {
  Rng rng(2026);
  for (const auto strategy :
       {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
        search::Strategy::BestFirst}) {
    auto frontier = search::make_frontier(strategy);
    std::vector<double> mirror;  // bounds currently inside, any order

    const auto scan_min = [&] {
      return *std::min_element(mirror.begin(), mirror.end());
    };
    for (int step = 0; step < 2000; ++step) {
      const auto roll = rng.below(10);
      if (roll < 6 || frontier->empty()) {
        search::DetachedNode n;
        n.bound = static_cast<double>(rng.below(50));  // duplicates likely
        mirror.push_back(n.bound);
        frontier->push(std::move(n));
      } else if (roll < 9) {
        const double popped = frontier->pop().bound;
        mirror.erase(std::find(mirror.begin(), mirror.end(), popped));
      } else {
        const double cutoff = static_cast<double>(rng.below(50));
        frontier->prune_above(cutoff);
        std::erase_if(mirror, [&](double b) { return b > cutoff; });
      }
      ASSERT_EQ(frontier->size(), mirror.size());
      if (!frontier->empty())
        ASSERT_EQ(frontier->min_bound(), scan_min())
            << search::strategy_name(strategy) << " step " << step;
    }
  }
}

// ------------------------------------------------- solution_texts dedup --

TEST(SolutionTexts, DeduplicatesRepeatedDerivations) {
  engine::Interpreter ip;
  // X=a is derivable twice; the canonical set has it once.
  ip.consult_string("p(a). p(a). p(b).");
  const auto r = ip.solve("p(X)");
  EXPECT_EQ(r.solutions.size(), 3u);
  EXPECT_EQ(engine::solution_texts(r),
            (std::vector<std::string>{"X=a", "X=b"}));
}

// ----------------------------------------------------------------- stress --

// The ThreadSanitizer target: concurrent solvers (sequential and parallel
// engines, repeated and fresh queries) race against a consulter publishing
// new snapshots and a session merge. Everything must stay data-race-free
// and every response complete or honestly truncated.
TEST(ServiceStress, SolversVsConsulter) {
  service::ServiceOptions so;
  so.max_concurrent_queries = 4;
  QueryService svc(so);
  svc.consult(workloads::figure1_family());
  svc.consult(workloads::layered_dag(3, 3));

  constexpr int kSolvers = 4;
  constexpr int kQueriesPerSolver = 40;
  std::atomic<int> bad{0};

  std::vector<std::thread> solvers;
  solvers.reserve(kSolvers);
  for (int t = 0; t < kSolvers; ++t) {
    solvers.emplace_back([&, t] {
      const char* queries[] = {"gf(sam,G)", "path(n0_0,Z,P)", "f(X,Y)"};
      for (int i = 0; i < kQueriesPerSolver; ++i) {
        QueryRequest req;
        req.text = queries[(t + i) % 3];
        req.workers = (i % 8 == 3) ? 2u : 1u;
        if (i % 5 == 4) req.budget.max_nodes = 3;  // some truncations
        const auto r = svc.query(req);
        if (r.status != QueryStatus::Ok && r.status != QueryStatus::Truncated)
          ++bad;
        if (r.status == QueryStatus::Ok && req.text == std::string("gf(sam,G)") &&
            r.answers.size() < 2)
          ++bad;  // the two original grandchildren never disappear
      }
    });
  }
  std::thread consulter([&] {
    for (int i = 0; i < 20; ++i) {
      svc.consult("extra" + std::to_string(i) + "(x).");
      if (i % 7 == 6) svc.end_session();
      std::this_thread::yield();
    }
  });
  for (auto& s : solvers) s.join();
  consulter.join();

  EXPECT_EQ(bad.load(), 0);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, kSolvers * kQueriesPerSolver);
  EXPECT_EQ(stats.epoch, svc.snapshot()->epoch);
  EXPECT_GE(stats.epoch, 22u);  // 2 setup consults + 20 + session bumps
}
