// Work-stealing scheduler tests: deque/steal/termination unit behaviour,
// the max_solutions exact-count fix under contention, copy-on-steal spill
// handle lifecycle (claim CAS, owner fulfillment, invalidation races), and
// steal-storm stress with tiny deques (the BLOG_TSAN CI job runs all of
// these under the thread sanitizer).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "blog/parallel/engine.hpp"
#include "blog/parallel/topology.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog::parallel {
namespace {

using engine::Interpreter;

search::Node node_with_bound(double b) {
  search::Node n;
  n.bound = b;
  return n;
}

std::vector<std::string> texts(const ParallelResult& r) {
  std::vector<std::string> out;
  for (const auto& s : r.solutions) out.push_back(s.text);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> sequential_expected(const std::string& program,
                                             const std::string& query) {
  Interpreter ip;
  ip.consult_string(program);
  return engine::solution_texts(ip.solve(query, {.update_weights = false}));
}

ParallelResult solve_parallel(const std::string& program,
                              const std::string& query, ParallelOptions po) {
  Interpreter ip;
  ip.consult_string(program);
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  return pe.solve(ip.parse_query(query));
}

// ------------------------------------------------------- unit behaviour --

TEST(WorkStealing, AcquireHandsOutGlobalMinimumAcrossDeques) {
  WorkStealingScheduler s(3);
  s.push_root(node_with_bound(3.0));
  // Two more chains on other deques; keep the in-flight count honest.
  s.on_expanded(3);  // 1 dies conceptually, 3 born → matches 3 queued
  std::vector<search::Node> b1, b2;
  b1.push_back(node_with_bound(1.0));
  b2.push_back(node_with_bound(2.0));
  s.push_batch(1, std::move(b1));
  s.push_batch(2, std::move(b2));

  ASSERT_TRUE(s.min_bound().has_value());
  EXPECT_DOUBLE_EQ(*s.min_bound(), 1.0);
  // Worker 0's own deque holds 3.0, yet the idle scan must hand out the
  // globally lowest bound first (§6's minimum-seeking grant).
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 1.0);
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 2.0);
  EXPECT_DOUBLE_EQ(s.acquire(0)->bound, 3.0);
}

TEST(WorkStealing, TryAcquireBetterTakesOnlyRemoteChains) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(5.0));  // lands in worker 0's deque
  // Worker 0's own spill must never trigger the migrate-out penalty.
  EXPECT_FALSE(s.try_acquire_better(0, 100.0, 0.0).has_value());
  // Worker 1 sees it as a remote chain below its local minimum.
  auto got = s.try_acquire_better(1, 100.0, 0.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->bound, 5.0);
}

TEST(WorkStealing, TryAcquireBetterRespectsThresholdD) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(5.0));
  // local min 6, D=2: 5 >= 6-2 → refuse; local min 8, D=2: 5 < 8-2 → grant.
  EXPECT_FALSE(s.try_acquire_better(1, 6.0, 2.0).has_value());
  EXPECT_TRUE(s.try_acquire_better(1, 8.0, 2.0).has_value());
}

TEST(WorkStealing, TerminatesWhenInflightZero) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));
  auto taken = s.acquire(0);
  ASSERT_TRUE(taken.has_value());
  s.on_expanded(0);  // chain died without children
  EXPECT_FALSE(s.acquire(0).has_value());
  EXPECT_FALSE(s.acquire(1).has_value());
}

TEST(WorkStealing, StopUnblocksIdleWorkers) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));  // inflight 1, so acquire(1) waits
  ASSERT_TRUE(s.acquire(0).has_value());
  std::thread waiter([&] { EXPECT_FALSE(s.acquire(1).has_value()); });
  while (!s.starving()) std::this_thread::yield();
  s.stop();
  waiter.join();
  EXPECT_TRUE(s.stopped());
}

TEST(WorkStealing, StarvingSignalTracksIdleWorkers) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));
  ASSERT_TRUE(s.acquire(0).has_value());
  EXPECT_FALSE(s.starving());  // nobody waiting yet
  std::thread waiter([&] {
    auto n = s.acquire(1);  // blocks until the push below
    EXPECT_TRUE(n.has_value());
  });
  while (!s.starving()) std::this_thread::yield();
  std::vector<search::Node> batch;
  batch.push_back(node_with_bound(1.0));
  s.on_expanded(2);  // the expansion that produced the spilled chain
  s.push_batch(0, std::move(batch));
  waiter.join();
  EXPECT_FALSE(s.starving());
  s.stop();
}

TEST(WorkStealing, IdleStealTakesHalfTheVictimsDeque) {
  WorkStealingScheduler s(2, /*deque_capacity=*/64);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(10);  // 9 more chains than the root
  std::vector<search::Node> batch;
  for (int i = 1; i < 10; ++i) batch.push_back(node_with_bound(i));
  s.push_batch(0, std::move(batch));

  ASSERT_TRUE(s.acquire(1).has_value());
  const auto st = s.stats();
  // The thief took the minimum plus roughly half of the remaining nine.
  EXPECT_GE(st.steals, 4u);
  s.stop();
}

TEST(WorkStealing, OverflowOffloadsHalfToTheEmptiestPeer) {
  WorkStealingScheduler s(2, /*deque_capacity=*/2);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(4);  // 3 more chains than the root
  std::vector<search::Node> batch;
  for (int i = 1; i < 4; ++i) batch.push_back(node_with_bound(i));
  // Worker 0's deque overflows (4 > 2) while worker 1's sits empty: half
  // must be shed across, and the global pop order must survive the move.
  s.push_batch(0, std::move(batch));
  EXPECT_GE(s.stats().offloads, 1u);
  for (double expect : {0.0, 1.0, 2.0, 3.0})
    EXPECT_DOUBLE_EQ(s.acquire(0)->bound, expect);
}

TEST(WorkStealing, StatsCountTraffic) {
  WorkStealingScheduler s(2);
  s.push_root(node_with_bound(0.0));
  s.on_expanded(2);  // the root's expansion produced one more chain
  std::vector<search::Node> batch;
  batch.push_back(node_with_bound(1.0));
  s.push_batch(0, std::move(batch));
  ASSERT_TRUE(s.acquire(0).has_value());
  const auto st = s.stats();
  EXPECT_EQ(st.pushes, 2u);
  EXPECT_EQ(st.pops, 1u);
  s.stop();
}

// -------------------------------------------------- adaptive capacity ----

TEST(AdaptiveCapacity, TracksStealPressure) {
  SchedulerTuning t;
  t.ewma_window = 1;  // alpha = 1: the EWMA tracks the last sample exactly
  WorkStealingScheduler s(2, /*deque_capacity=*/8, t);
  EXPECT_EQ(s.deque_capacity(0), 8u);  // seed until the first spill
  // Unstolen spill with nobody idle: pressure sample 0 — the capacity
  // grows above its seed (a lone-hot worker stops sharding its pool).
  s.on_expanded(2);
  std::vector<search::Node> b1;
  b1.push_back(node_with_bound(1.0));
  s.push_batch(0, std::move(b1));
  EXPECT_GT(s.deque_capacity(0), 8u);
  // A theft followed by the next spill: sample 1 — the capacity shrinks
  // below the seed (a pressured pool sheds earlier).
  ASSERT_TRUE(s.try_acquire_better(1, 1e9, 0.0).has_value());
  s.on_expanded(2);
  std::vector<search::Node> b2;
  b2.push_back(node_with_bound(2.0));
  s.push_batch(0, std::move(b2));
  EXPECT_LT(s.deque_capacity(0), 8u);
  s.stop();
}

TEST(AdaptiveCapacity, DisabledTuningPinsTheSeeds) {
  SchedulerTuning t;
  t.adaptive = false;
  WorkStealingScheduler s(2, /*deque_capacity=*/8, t);
  for (int i = 0; i < 10; ++i) {
    s.on_expanded(2);
    std::vector<search::Node> b;
    b.push_back(node_with_bound(i));
    s.push_batch(0, std::move(b));
  }
  EXPECT_EQ(s.deque_capacity(0), 8u);
  EXPECT_EQ(s.local_capacity_hint(0, 5), 5u);
  s.stop();
}

// ------------------------------------------------------ NUMA topology ----

TEST(Topology, ParseCpulistHandlesRangesAndSingles) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<unsigned>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<unsigned>{5}));
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist("garbage").empty());
}

TEST(Topology, RoundRobinWorkerPlacement) {
  Topology t({{0, {0, 1}}, {1, {2, 3}}});
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_FALSE(t.single_node());
  EXPECT_EQ(t.node_of_worker(0), 0u);
  EXPECT_EQ(t.node_of_worker(1), 1u);
  EXPECT_EQ(t.node_of_worker(2), 0u);
  EXPECT_EQ(t.cpus_of(1), (std::vector<unsigned>{2, 3}));
  EXPECT_TRUE(t.cpus_of(7).empty());
}

TEST(Topology, SystemDetectionFallsBackToAtLeastOneNode) {
  // Whatever the host looks like, detection must yield a usable topology
  // (>= 1 node) and a total worker placement.
  const Topology& t = Topology::system();
  EXPECT_GE(t.node_count(), 1u);
  EXPECT_LT(t.node_of_worker(13), t.node_count());
}

// ---------------------------------------------- copy-on-steal handles ----

std::shared_ptr<search::SpillHandle> handle_with_bound(double b,
                                                       unsigned owner) {
  auto h = std::make_shared<search::SpillHandle>();
  h->bound = b;
  h->owner = owner;
  h->claim_ping = std::make_shared<std::atomic<std::uint64_t>>(0);
  return h;
}

TEST(CopyOnSteal, ThiefClaimWaitsForOwnerFulfillment) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(1.5, /*owner=*/0);
  s.on_expanded(2);  // pretend one expansion produced the published chain
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  ASSERT_TRUE(s.min_bound().has_value());
  EXPECT_DOUBLE_EQ(*s.min_bound(), 1.5);  // the bound entered the network

  // Fake owner: once a thief wins the claim CAS, materialize and deposit.
  std::thread owner([&] {
    while (h->state.load(std::memory_order_acquire) !=
           search::SpillHandle::kClaimed)
      std::this_thread::yield();
    h->node = node_with_bound(1.5);
    h->state.store(search::SpillHandle::kReady, std::memory_order_release);
  });
  auto n = s.acquire(1);  // claims the handle and waits for the deposit
  owner.join();
  ASSERT_TRUE(n.has_value());
  EXPECT_DOUBLE_EQ(n->bound, 1.5);
  EXPECT_EQ(h->claim_ping->load(), 1u);  // the claim pinged the owner
  EXPECT_EQ(h->state.load(), search::SpillHandle::kTaken);
  const auto st = s.stats();
  EXPECT_EQ(st.handles_published, 1u);
  EXPECT_EQ(st.handle_claims, 1u);
  EXPECT_EQ(st.handle_grants, 1u);
  s.stop();
}

TEST(CopyOnSteal, OwnerResolvedHandleIsStaleToThieves) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(1.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  // The owner reclaims the choice in place (activate_top winning the CAS).
  h->state.store(search::SpillHandle::kOwnerTaken);
  // The entry still advertises bound 1.0, but a probing thief must see
  // through it: pop, discard as stale, find nothing.
  EXPECT_FALSE(s.try_acquire_better(1, 100.0, 0.0).has_value());
  EXPECT_GE(s.stats().stale_discards, 1u);
  EXPECT_FALSE(s.min_bound().has_value());  // deque publishes empty now
  s.stop();
}

TEST(CopyOnSteal, DeadHandleAbandonsTheClaimingThief) {
  WorkStealingScheduler s(2);
  auto h = handle_with_bound(2.0, /*owner=*/0);
  s.on_expanded(2);
  std::vector<std::shared_ptr<search::SpillHandle>> hs{h};
  s.push_handles(0, std::move(hs));
  std::thread thief([&] {
    // Claims, waits, sees kDead, gives up; the chain's death (on_expanded
    // below) then terminates the acquire loop.
    EXPECT_FALSE(s.acquire(1).has_value());
  });
  while (h->state.load(std::memory_order_acquire) !=
         search::SpillHandle::kClaimed)
    std::this_thread::yield();
  // Owner shutting down: kill the claimed handle instead of fulfilling.
  h->state.store(search::SpillHandle::kDead, std::memory_order_release);
  s.on_expanded(0);  // the dropped chain leaves the outstanding count
  thief.join();
}

// ------------------------------------- max_solutions exact-count (fix) --

TEST(WorkStealingStress, MaxSolutionsNeverOvershootsUnderContention) {
  // Many workers racing a tiny limit on a solution-rich tree: the CAS
  // claim loop must keep the published count exactly at the limit, run
  // after run. (The old fetch_sub wrapped the counter past zero and let
  // racing workers keep appending.)
  const std::string program = workloads::layered_dag(3, 3);
  for (int run = 0; run < 10; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.limits.max_solutions = 3;
    po.local_capacity = 1;  // maximize sharing → maximize the race
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(r.solutions.size(), 3u) << "run " << run;
    EXPECT_EQ(r.outcome, search::Outcome::SolutionLimit);
    EXPECT_FALSE(r.exhausted);
  }
}

// ------------------------------------------------- steal-storm stress ----

TEST(WorkStealingStress, LazyHandleStormStaysExact) {
  // The steal storm: deque capacity 1 forces constant offloads and steals,
  // and local capacity 1 publishes nearly every choice as a copy-on-steal
  // handle, so owners race their own reclaims against thieves' claim CASes
  // and thieves spin-wait on claimed handles (bounded wait plus un-claim
  // in the D-threshold probe) while owners fulfill at their expansion
  // boundaries. Adaptivity is pinned off so the storm stays a storm. Every
  // answer must still be found exactly once, run after run, and every
  // published handle consumed exactly once (TSan-verified in CI).
  const std::string program = workloads::layered_dag(4, 3);
  const auto expected = sequential_expected(program, "path(n0_0,Z,P)");
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(texts(r), expected) << "run " << run;
    EXPECT_TRUE(r.exhausted);
    std::uint64_t published = 0, reclaimed = 0, granted = 0, migrated = 0;
    for (const auto& w : r.workers) {
      published += w.handles_published;
      reclaimed += w.handles_reclaimed;
      granted += w.handles_granted;
      migrated += w.handles_migrated;
    }
    EXPECT_GT(published, 0u) << "run " << run;
    // Exhausted run: every published handle was consumed exactly once —
    // reclaimed in place, granted to a thief, or rematerialized into a
    // D-threshold migration batch.
    EXPECT_EQ(reclaimed + granted + migrated, published) << "run " << run;
  }
}

TEST(WorkStealingStress, LazyAbandonUnderStopRacesThievesCleanly) {
  // Handle invalidation: a tiny max_solutions stops the search while
  // owners still hold published handles and thieves hold fresh claims —
  // the shutdown path must kill handles (kDead) without losing the exact
  // count or hanging a claim-waiting thief. 10 runs to shake the race.
  const std::string program = workloads::layered_dag(3, 3);
  for (int run = 0; run < 10; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.limits.max_solutions = 3;
    po.local_capacity = 1;
    po.steal_deque_capacity = 1;
    po.adaptive_capacity = false;
    po.update_weights = false;
    const auto r = solve_parallel(program, "path(n0_0,Z,P)", po);
    EXPECT_EQ(r.solutions.size(), 3u) << "run " << run;
    EXPECT_EQ(r.outcome, search::Outcome::SolutionLimit);
    EXPECT_FALSE(r.exhausted);
  }
}

TEST(WorkStealingStress, LazyMigrationDetachAllRacesThievesCleanly) {
  // §5 weight updates shift bounds between runs, so try_acquire_better
  // keeps firing and detach_all migrates pools that still hold published
  // handles — racing thieves claiming them. The solution set must not
  // care who wins.
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  for (int run = 0; run < 3; ++run) {
    ParallelOptions po;
    po.workers = 8;
    po.local_capacity = 1;
    po.steal_deque_capacity = 2;
    po.adaptive_capacity = false;
    ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
    const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
    EXPECT_EQ(r.solutions.size(), 40u) << "run " << run;
  }
}

TEST(WorkStealingStress, WeightUpdatesRaceCleanly) {
  // §5 weight updates on, many workers, tiny deques: exercises the
  // scheduler and the weight store together for the sanitizer jobs.
  Interpreter ip;
  ip.consult_string(workloads::layered_dag(3, 3));
  ParallelOptions po;
  po.workers = 8;
  po.local_capacity = 1;
  po.steal_deque_capacity = 2;
  ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  EXPECT_EQ(r.solutions.size(), 40u);
  EXPECT_GT(ip.weights().session_size(), 0u);
}

TEST(WorkStealingStress, LiveStatsSnapshotsStayMonotonicUnderStorm) {
  // stats() is documented live-safe: every field is its own monotonic
  // atomic, so a monitor sampling mid-run must never observe a counter
  // going backwards (or a half-written struct). Hammer the scheduler from
  // worker threads — with a flight recorder attached, so the trace paths
  // get the same TSan coverage — while a monitor thread samples
  // stats()/min_bound() continuously.
  constexpr unsigned kWorkers = 4;
  obs::TraceSink sink;
  SchedulerTuning tuning;
  tuning.adaptive = false;
  tuning.trace = &sink;
  WorkStealingScheduler s(kWorkers, /*deque_capacity=*/1, tuning);
  s.push_root(node_with_bound(0.0));

  std::atomic<std::int64_t> fanout_budget{5000};
  std::atomic<std::uint64_t> expansions_done{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t seq = 0;
      while (auto n = s.acquire(w)) {
        const std::size_t k =
            fanout_budget.fetch_sub(1, std::memory_order_relaxed) > 0 ? 2 : 0;
        s.on_expanded(k);
        expansions_done.fetch_add(1, std::memory_order_relaxed);
        if (k > 0) {
          std::vector<search::Node> batch;
          for (std::size_t i = 0; i < k; ++i)
            batch.push_back(node_with_bound(n->bound + 1.0 + ++seq * 1e-6));
          s.push_batch(w, std::move(batch));
        }
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    SchedulerStats prev;
    while (!done.load(std::memory_order_acquire)) {
      const SchedulerStats cur = s.stats();
      EXPECT_GE(cur.pushes, prev.pushes);
      EXPECT_GE(cur.pops, prev.pops);
      EXPECT_GE(cur.grants, prev.grants);
      EXPECT_GE(cur.steals, prev.steals);
      EXPECT_GE(cur.steal_attempts, prev.steal_attempts);
      EXPECT_GE(cur.offloads, prev.offloads);
      EXPECT_GE(cur.lock_acquisitions, prev.lock_acquisitions);
      EXPECT_GE(cur.handles_published, prev.handles_published);
      EXPECT_GE(cur.handle_claims, prev.handle_claims);
      EXPECT_GE(cur.handle_grants, prev.handle_grants);
      EXPECT_GE(cur.stale_discards, prev.stale_discards);
      EXPECT_GE(cur.claim_wait_spins, prev.claim_wait_spins);
      EXPECT_GE(cur.claim_wait_us, prev.claim_wait_us);
      EXPECT_GE(cur.expansions, prev.expansions);
      // Live sink counters share the same contract.
      EXPECT_GE(sink.recorded(), sink.dropped());
      (void)s.min_bound();
      prev = cur;
    }
  });

  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_release);
  monitor.join();

  const SchedulerStats fin = s.stats();
  EXPECT_EQ(fin.expansions,
            expansions_done.load(std::memory_order_relaxed));
  EXPECT_GT(fin.expansions, 5000u);
}

}  // namespace
}  // namespace blog::parallel
