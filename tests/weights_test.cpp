// §5 weight store: the pinned sequential weight trajectory, and the cells
// under concurrent updates racing session boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "blog/engine/interpreter.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog {
namespace {

// ------------------------------------------------------------ trajectory --

using Entry = std::tuple<db::ClauseId, std::uint32_t, db::ClauseId, db::ClauseId, double>;

std::vector<Entry> sorted_snapshot(const db::WeightStore& ws) {
  std::vector<Entry> out;
  for (const auto& [k, w] : ws.snapshot())
    out.emplace_back(k.caller, k.literal, k.callee, k.context, w);
  std::sort(out.begin(), out.end());
  return out;
}

constexpr db::ClauseId kQ = db::kQueryClause;
constexpr db::ClauseId kNo = db::kNoContext;

// Every weight bench_session's sequence leaves behind (caller, literal,
// callee, context, weight), then the four conditional keys one
// conditional solve adds. Recorded from the map-based store this one
// replaced; the values are exact.
const std::vector<Entry> kUnconditional = {
    {0, 0, 2, kNo, 5.333333333333333},   {0, 0, 4, kNo, 128},
    {0, 0, 6, kNo, 5.3333333333333339},  {0, 0, 10, kNo, 128},
    {0, 0, 12, kNo, 5.3333333333333339}, {0, 0, 14, kNo, 128},
    {0, 0, 16, kNo, 128},                {0, 0, 18, kNo, 5.3333333333333339},
    {0, 1, 26, kNo, 5.3333333333333339}, {0, 1, 28, kNo, 5.333333333333333},
    {1, 0, 2, kNo, 128},                 {1, 0, 6, kNo, 128},
    {1, 0, 8, kNo, 128},                 {kQ, 0, 0, kNo, 5.333333333333333},
};
const std::vector<Entry> kConditional = {
    {0, 0, 2, 0, 5.333333333333333}, {0, 1, 28, 2, 5.333333333333333},
    {1, 0, 2, 1, 128},               {kQ, 0, 0, kQ, 5.333333333333333},
};

TEST(WeightTrajectory, SessionBenchSequenceMatchesRecordedWeights) {
  Rng rng(42);
  engine::Interpreter ip;
  ip.consult_string(workloads::random_family(rng, 5, 4));
  std::vector<std::string> qs;
  for (int c = 0; c < 4; ++c) qs.push_back("gf(p0_" + std::to_string(2 * c) + ",G)");
  qs.push_back(qs.front());  // the user retries the first query
  search::SearchOptions opts;
  opts.strategy = search::Strategy::BestFirst;
  opts.limits.max_solutions = 1;
  auto run = [&] {
    std::size_t nodes = 0;
    for (const auto& q : qs) nodes += ip.solve(q, opts).stats.nodes_expanded;
    return nodes;
  };
  auto all = kUnconditional;
  all.insert(all.end(), kConditional.begin(), kConditional.end());
  std::sort(all.begin(), all.end());
  const db::WeightStore& ws = ip.weights();

  ip.begin_session();
  EXPECT_EQ(run(), 33u);
  EXPECT_EQ(ws.session_size(), 14u);
  EXPECT_EQ(ws.global_size(), 0u);
  EXPECT_EQ(sorted_snapshot(ws), kUnconditional);

  ip.end_session();
  EXPECT_EQ(ws.session_size(), 0u);
  EXPECT_EQ(ws.global_size(), 14u);
  EXPECT_EQ(sorted_snapshot(ws), kUnconditional);

  ip.begin_session();
  EXPECT_EQ(run(), 20u);  // every chain is already known: no writes
  EXPECT_EQ(ws.session_size(), 0u);
  EXPECT_EQ(ws.global_size(), 14u);
  EXPECT_EQ(sorted_snapshot(ws), kUnconditional);

  search::SearchOptions cond = opts;
  cond.expander.conditional_weights = true;
  const auto r = ip.solve(qs.front(), cond);
  EXPECT_EQ(r.stats.nodes_expanded, 6u);
  EXPECT_EQ(r.solutions.size(), 1u);
  EXPECT_EQ(ws.session_size(), 4u);
  EXPECT_EQ(ws.global_size(), 14u);
  EXPECT_EQ(sorted_snapshot(ws), all);

  ip.end_session();
  EXPECT_EQ(ws.session_size(), 0u);
  EXPECT_EQ(ws.global_size(), 18u);
  EXPECT_EQ(sorted_snapshot(ws), all);
}

TEST(WeightTrajectory, MergeRulesPerKey) {
  db::WeightStore ws({.n = 16, .a = 8, .blend = 0.5});
  const db::PointerKey known{1, 0, 2}, inf_over_known{1, 0, 3},
      inf_fresh{1, 0, 4}, demoted{1, 0, 5};
  ws.set_session(known, 4.0);
  ws.set_session(inf_over_known, 6.0);
  ws.set_session(demoted, ws.params().infinity());
  ws.end_session();
  ws.set_session(known, 8.0);                           // blends: (4 + 8) / 2
  ws.set_session(inf_over_known, ws.params().infinity());  // never overrides
  ws.set_session(inf_fresh, ws.params().infinity());    // kept: no global yet
  ws.set_session(demoted, 2.0);                         // a success demotes
  ws.end_session();
  EXPECT_EQ(ws.global_weight(known), 6.0);
  EXPECT_EQ(ws.global_weight(inf_over_known), 6.0);
  EXPECT_EQ(ws.global_weight(inf_fresh), ws.params().infinity());
  EXPECT_EQ(ws.global_weight(demoted), 2.0);
  EXPECT_EQ(ws.global_weight({1, 0, 6}), ws.params().unknown());
  ws.set_session(known, 1.0);
  ws.begin_session();  // discards without merging
  EXPECT_EQ(ws.session_size(), 0u);
  EXPECT_EQ(ws.weight(known), 6.0);
}

TEST(WeightTrajectory, CellsAreStableAndKeyedByEveryId) {
  db::WeightStore ws;
  // Ids at the edges of each table: the query caller, the two reserved
  // contexts, and callees far apart (the table grows taller under them).
  const std::vector<db::PointerKey> keys = {
      {kQ, 0, 0, kNo},           {kQ, 0, 0, kQ},      {0, 0, 0, 0},
      {7, 3, 0xfffffffdu, kNo},  {7, 3, 1, kNo},      {7, 3, 1, 9},
      {0xfffffffdu, 40, 5, kQ},  {2, 1, 100000, kNo},
  };
  std::vector<db::WeightCell*> cells;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cells.push_back(&ws.cell(keys[i]));
    ws.set_session(*cells.back(), static_cast<double>(i));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(&ws.cell(keys[i]), cells[i]);
    EXPECT_EQ(ws.weight(keys[i]), static_cast<double>(i));
  }
  const auto snap = ws.snapshot();
  EXPECT_EQ(snap.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(snap.at(keys[i]), static_cast<double>(i));
  // A read never makes a cell.
  EXPECT_EQ(ws.weight({3, 0, 3}), ws.params().unknown());
  EXPECT_EQ(ws.snapshot().size(), keys.size());
}

// ---------------------------------------------------------------- stress --

// Writers set disjoint fresh keys while another thread keeps merging and
// inspecting. Every write must reach the global table: an update that
// lands during a merge is merged by the next one.
TEST(WeightStoreStress, UpdatesRacingSessionBoundariesAreNeverLost) {
  db::WeightStore ws({.n = 16, .a = 8});
  constexpr unsigned kWriters = 3;
  constexpr std::uint32_t kKeysPerWriter = 4000;
  std::atomic<bool> writing{true};
  std::atomic<int> merges{0};
  std::thread boundary([&] {
    while (writing.load()) {
      ws.end_session();
      merges.fetch_add(1);
      (void)ws.snapshot();
      (void)ws.session_size();
    }
  });
  // Keys spread over callers, literals and contexts, so rows, pages and
  // taller roots are all made while the merges walk the table; the callee
  // alone keeps every writer's keys disjoint.
  auto key = [](unsigned w, std::uint32_t i) {
    return db::PointerKey{w * 1000 + i % 5, i % 3, i * 37 + w,
                          i % 4 == 0 ? db::kNoContext : i % 11};
  };
  auto value = [&](unsigned w, std::uint32_t i) {
    return i % 3 == 0 ? ws.params().infinity() : static_cast<double>(w + i % 7);
  };
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (merges.load() == 0) std::this_thread::yield();
      for (std::uint32_t i = 0; i < kKeysPerWriter; ++i)
        ws.set_session(key(w, i), value(w, i));
    });
  }
  for (auto& t : writers) t.join();
  writing.store(false);
  boundary.join();
  ws.end_session();
  EXPECT_EQ(ws.session_size(), 0u);
  EXPECT_EQ(ws.global_size(), std::size_t{kWriters} * kKeysPerWriter);
  for (unsigned w = 0; w < kWriters; ++w) {
    for (std::uint32_t i = 0; i < kKeysPerWriter; ++i)
      ASSERT_EQ(ws.global_weight(key(w, i)), value(w, i)) << "writer " << w << " key " << i;
  }
}

// A 4-worker updates-on ParallelEngine keeps returning the oracle's set
// while another thread merges the session it is writing.
TEST(WeightStoreStress, ParallelSolvesWithUpdatesWhileSessionsEnd) {
  const std::string program = workloads::layered_dag(4, 3);
  engine::Interpreter oracle;
  oracle.consult_string(program);
  search::SearchOptions frozen;
  frozen.update_weights = false;
  const auto expected =
      engine::solution_texts(oracle.solve("path(n0_0,Z,P)", frozen));

  engine::Interpreter ip;
  ip.consult_string(program);
  parallel::ParallelOptions o;
  o.workers = 4;
  o.update_weights = true;
  parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), o);
  std::atomic<bool> solving{true};
  std::thread boundary([&] {
    while (solving.load()) {
      ip.weights().end_session();
      (void)ip.weights().snapshot();
    }
  });
  for (int round = 0; round < 20; ++round) {
    const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    std::vector<std::string> got;
    for (const auto& s : r.solutions) got.push_back(s.text);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "round " << round;
    EXPECT_TRUE(r.exhausted);
  }
  solving.store(false);
  boundary.join();
}

}  // namespace
}  // namespace blog
