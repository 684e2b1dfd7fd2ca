// Persistent executor + async QueryService API: job lifecycles on the
// standalone pool, the run-queue as the one admission queue (running-job
// cap, places in line, sheds), submit/wait/poll/callback/cancel tickets,
// streamed answers byte-identical (as a set) to the batch list across
// strategies, consult-during-streaming snapshot isolation, and the
// ThreadSanitizer storm (N async clients vs a 4-worker pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "blog/engine/interpreter.hpp"
#include "blog/parallel/executor.hpp"
#include "blog/service/service.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;
using parallel::Executor;
using parallel::ExecutorOptions;
using parallel::JobRequest;
using parallel::JobTicket;
using service::QueryRequest;
using service::QueryService;
using service::QueryStatus;
using service::SubmitOptions;

namespace {

std::vector<std::string> cold_texts(const std::string& program,
                                    const std::string& query) {
  engine::Interpreter ip;
  ip.consult_string(program);
  return engine::solution_texts(ip.solve(query, {.update_weights = false}));
}

std::vector<std::string> sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

JobRequest make_job(engine::Interpreter& ip, const char* query,
                    unsigned slots = 1) {
  JobRequest jr;
  jr.program = &ip.program();
  jr.weights = &ip.weights();
  jr.builtins = &ip.builtins();
  jr.query = ip.parse_query(query);
  jr.slots = slots;
  jr.opts.update_weights = false;
  return jr;
}

/// The blocker pattern: a pool worker that calls hold() from a job's
/// callback stays inside it until release(), so tests can fill the pool
/// and the line deterministically.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void hold() {
    ++entered;
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait_entered(int n) const {
    while (entered.load() < n) std::this_thread::yield();
  }
};

}  // namespace

// ------------------------------------------------- standalone executor --

TEST(Executor, SequentialAndParallelJobsMatchColdInterpreter) {
  engine::Interpreter ip;
  ip.consult_string(workloads::layered_dag(4, 3));
  const auto expect = cold_texts(workloads::layered_dag(4, 3),
                                 "path(n0_0,Z,P)");

  ExecutorOptions eo;
  eo.workers = 4;
  Executor exec(eo);
  EXPECT_EQ(exec.workers(), 4u);

  for (const unsigned slots : {1u, 2u, 4u, 8u}) {  // 8 > pool: clamped
    JobRequest jr;
    jr.program = &ip.program();
    jr.weights = &ip.weights();
    jr.builtins = &ip.builtins();
    jr.query = ip.parse_query("path(n0_0,Z,P)");
    jr.slots = slots;
    jr.opts.update_weights = false;
    JobTicket t = exec.submit(std::move(jr));
    ASSERT_TRUE(t.valid());
    const auto& r = t.wait();
    EXPECT_TRUE(t.poll());
    EXPECT_EQ(r.outcome, search::Outcome::Exhausted) << "slots " << slots;
    std::vector<std::string> texts;
    for (const auto& s : r.solutions) texts.push_back(s.text);
    EXPECT_EQ(engine::solution_texts(std::move(texts)), expect)
        << "slots " << slots;
  }
  const auto s = exec.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.running, 0u);
}

TEST(Executor, ManyConcurrentJobsShareThePool) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  const auto expect = cold_texts(workloads::figure1_family(), "gf(sam,G)");

  ExecutorOptions eo;
  eo.workers = 4;
  Executor exec(eo);
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 32; ++i) {
    JobRequest jr;
    jr.program = &ip.program();
    jr.weights = &ip.weights();
    jr.builtins = &ip.builtins();
    jr.query = ip.parse_query("gf(sam,G)");
    jr.slots = 1u + static_cast<unsigned>(i % 3);
    jr.opts.update_weights = false;
    tickets.push_back(exec.submit(std::move(jr)));
    ASSERT_TRUE(tickets.back().valid());
  }
  for (auto& t : tickets) {
    const auto& r = t.wait();
    EXPECT_EQ(r.outcome, search::Outcome::Exhausted);
    std::vector<std::string> texts;
    for (const auto& s : r.solutions) texts.push_back(s.text);
    EXPECT_EQ(engine::solution_texts(std::move(texts)), expect);
  }
  EXPECT_EQ(exec.stats().completed, 32u);
}

TEST(Executor, OnAnswerStreamsAndOnCompleteFiresBeforeWait) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());

  Executor exec({.workers = 2});
  std::mutex mu;
  std::vector<std::string> streamed;
  std::atomic<bool> completed{false};

  JobRequest jr;
  jr.program = &ip.program();
  jr.weights = &ip.weights();
  jr.builtins = &ip.builtins();
  jr.query = ip.parse_query("gf(sam,G)");
  jr.slots = 2;
  jr.opts.update_weights = false;
  jr.on_answer = [&](const search::Solution& s) {
    std::lock_guard lock(mu);
    streamed.push_back(s.text);
  };
  jr.on_complete = [&](const parallel::ParallelResult& r) {
    EXPECT_EQ(r.outcome, search::Outcome::Exhausted);
    completed = true;
  };
  JobTicket t = exec.submit(std::move(jr));
  const auto& r = t.wait();
  EXPECT_TRUE(completed.load());  // callback ran before wait() returned
  EXPECT_EQ(streamed.size(), r.solutions.size());
}

TEST(Executor, QueueLimitRefusesWithoutBlocking) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());

  ExecutorOptions eo;
  eo.workers = 1;
  eo.queue_limit = 1;
  Executor exec(eo);

  // Park the lone worker so the queue actually fills.
  Latch latch;
  JobRequest blocker = make_job(ip, "gf(sam,G)");
  blocker.on_complete = [&](const parallel::ParallelResult&) { latch.hold(); };
  JobTicket held = exec.submit(std::move(blocker));
  ASSERT_TRUE(held.valid());
  latch.wait_entered(1);

  JobTicket queued = exec.submit(make_job(ip, "gf(sam,G)"));
  EXPECT_TRUE(queued.valid());    // fits the queue
  JobTicket refused = exec.submit(make_job(ip, "gf(sam,G)"));
  EXPECT_FALSE(refused.valid());  // queue full: shed, submit never blocked
  EXPECT_EQ(refused.id(), 0u);
  EXPECT_EQ(exec.stats().rejected, 1u);

  latch.release();
  held.wait();
  queued.wait();
  EXPECT_EQ(exec.stats().completed, 2u);
}

TEST(Executor, CancelQueuedJobCompletesCancelled) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());

  ExecutorOptions eo;
  eo.workers = 1;
  Executor exec(eo);

  Latch latch;
  JobRequest blocker = make_job(ip, "gf(sam,G)");
  blocker.on_complete = [&](const parallel::ParallelResult&) { latch.hold(); };
  JobTicket held = exec.submit(std::move(blocker));
  latch.wait_entered(1);

  JobTicket victim = exec.submit(make_job(ip, "gf(sam,G)"));
  ASSERT_TRUE(victim.valid());
  EXPECT_TRUE(victim.cancel());       // still queued: completes immediately
  EXPECT_FALSE(victim.cancel());      // second cancel: already done
  EXPECT_EQ(victim.wait().outcome, search::Outcome::Cancelled);
  EXPECT_TRUE(victim.wait().workers.empty());  // no worker ever attached
  EXPECT_EQ(exec.stats().cancelled, 1u);

  latch.release();
  held.wait();
}

TEST(Executor, QueuePositionCountsOnlyJobsWaitingInLine) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  ExecutorOptions eo;
  eo.workers = 1;
  Executor exec(eo);

  Latch latch;
  JobRequest blocker = make_job(ip, "gf(sam,G)");
  blocker.on_complete = [&](const parallel::ParallelResult&) { latch.hold(); };
  JobTicket held = exec.submit(std::move(blocker));
  latch.wait_entered(1);  // the only worker is busy in the callback
  EXPECT_EQ(held.queue_position(), 0u);

  std::vector<JobTicket> line;
  for (int i = 0; i < 3; ++i) line.push_back(exec.submit(make_job(ip, "gf(sam,G)")));
  for (std::size_t i = 0; i < line.size(); ++i)
    EXPECT_EQ(line[i].queue_position(), i + 1);
  EXPECT_EQ(exec.stats().queued, 3u);
  EXPECT_TRUE(line[1].cancel());  // frees its place
  EXPECT_EQ(line[1].queue_position(), 0u);
  EXPECT_EQ(line[0].queue_position(), 1u);
  EXPECT_EQ(line[2].queue_position(), 2u);
  EXPECT_EQ(exec.stats().queued, 2u);

  latch.release();
  for (auto& t : line) t.wait();
  for (auto& t : line) EXPECT_EQ(t.queue_position(), 0u);
}

TEST(Executor, ZeroQueueLimitStartsOnlyWhatIdleWorkersTake) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  ExecutorOptions eo;
  eo.workers = 2;
  eo.queue_limit = 0;
  Executor exec(eo);

  Latch latch;
  std::vector<JobTicket> held;
  for (int i = 0; i < 2; ++i) {
    JobRequest blocker = make_job(ip, "gf(sam,G)");
    blocker.on_complete = [&](const parallel::ParallelResult&) { latch.hold(); };
    held.push_back(exec.submit(std::move(blocker)));
    EXPECT_TRUE(held.back().valid()) << i;  // an idle worker takes it
  }
  latch.wait_entered(2);
  EXPECT_FALSE(exec.submit(make_job(ip, "gf(sam,G)")).valid());  // no room
  latch.release();
  for (auto& t : held) t.wait();
  while (exec.stats().busy_workers != 0) std::this_thread::yield();
  JobTicket after = exec.submit(make_job(ip, "gf(sam,G)"));
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.wait().outcome, search::Outcome::Exhausted);
  EXPECT_EQ(exec.stats().rejected, 1u);
}

TEST(Executor, RunningJobCapHoldsNewJobsInLine) {
  engine::Interpreter ip;
  ip.consult_string(workloads::figure1_family());
  ExecutorOptions eo;
  eo.workers = 3;
  eo.max_running_jobs = 1;
  Executor exec(eo);

  Latch hold_a;
  JobRequest a = make_job(ip, "gf(sam,G)");
  a.on_answer = [&](const search::Solution&) { hold_a.hold(); };
  JobTicket ta = exec.submit(std::move(a));
  hold_a.wait_entered(1);  // A runs, its worker held mid-search

  JobTicket tb = exec.submit(make_job(ip, "gf(sam,G)"));
  Latch hold_c;
  JobRequest c = make_job(ip, "gf(sam,G)", 3);
  c.on_answer = [&](const search::Solution&) { hold_c.hold(); };
  JobTicket tc = exec.submit(std::move(c));
  // Two workers are idle, but the cap holds both jobs in line.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(tb.poll());
  EXPECT_EQ(tb.queue_position(), 1u);
  EXPECT_EQ(tc.queue_position(), 2u);
  auto s = exec.stats();
  EXPECT_EQ(s.running, 1u);
  EXPECT_EQ(s.queued, 2u);

  hold_a.release();
  ta.wait();
  tb.wait();
  // C starts once B is done. The capped start wakes the worker that slept
  // past C, so all three workers attach while C's first answer is held.
  hold_c.wait_entered(1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (exec.stats().busy_workers < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  s = exec.stats();
  EXPECT_EQ(s.busy_workers, 3u);
  EXPECT_EQ(s.running, 1u);
  hold_c.release();
  EXPECT_EQ(tc.wait().outcome, search::Outcome::Exhausted);
  EXPECT_EQ(tc.wait().solutions.size(), 2u);
}

TEST(Executor, DestructorCancelsOutstandingJobs) {
  engine::Interpreter ip;
  // A search space big enough that jobs are still running at teardown.
  ip.consult_string(workloads::layered_dag(6, 4));
  std::vector<JobTicket> tickets;
  {
    Executor exec({.workers = 2});
    for (int i = 0; i < 8; ++i) {
      JobRequest jr;
      jr.program = &ip.program();
      jr.weights = &ip.weights();
      jr.builtins = &ip.builtins();
      jr.query = ip.parse_query("path(n0_0,Z,P)");
      jr.slots = 2;
      jr.opts.update_weights = false;
      tickets.push_back(exec.submit(std::move(jr)));
    }
  }  // ~Executor: every ticket must complete (Cancelled or finished)
  for (auto& t : tickets) {
    ASSERT_TRUE(t.valid());
    EXPECT_TRUE(t.poll());
    const auto o = t.wait().outcome;
    EXPECT_TRUE(o == search::Outcome::Cancelled ||
                o == search::Outcome::Exhausted)
        << search::outcome_name(o);
  }
}

TEST(Executor, DestructorStopsRunningJobs) {
  // A job whose slots are all claimed has left the run-queue; teardown must
  // still stop it at its workers' next expansion boundary rather than wait
  // out the whole search.
  const std::string program = workloads::layered_dag(6, 4);
  const std::size_t all = cold_texts(program, "path(n0_0,Z,P)").size();
  for (const unsigned slots : {1u, 2u}) {
    engine::Interpreter ip;
    ip.consult_string(program);
    Latch latch;
    JobTicket ticket;
    std::thread releaser;
    {
      Executor exec({.workers = 2});
      JobRequest jr = make_job(ip, "path(n0_0,Z,P)", slots);
      jr.on_answer = [&](const search::Solution&) { latch.hold(); };
      ticket = exec.submit(std::move(jr));
      latch.wait_entered(1);  // the job is running: its first answer is in
      while (exec.stats().busy_workers < slots) std::this_thread::yield();
      releaser = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        latch.release();
      });
    }  // ~Executor
    releaser.join();
    const auto& r = ticket.wait();
    EXPECT_EQ(r.outcome, search::Outcome::Cancelled) << "slots=" << slots;
    EXPECT_LT(r.solutions.size(), all) << "slots=" << slots;
  }
}

TEST(Executor, CallerFlagAndTicketCancelBothStopJobs) {
  // A job stops at its next expansion boundary once its caller's
  // ParallelOptions::cancel flag or its ticket's cancel is set, on the
  // one-slot path and the scheduler path alike.
  const std::string program = workloads::layered_dag(6, 4);
  const std::size_t all = cold_texts(program, "path(n0_0,Z,P)").size();
  engine::Interpreter ip;
  ip.consult_string(program);
  Executor exec({.workers = 2});
  for (const unsigned slots : {1u, 2u}) {
    {  // the caller's flag, set before submit
      std::atomic<bool> flag{true};
      JobRequest jr = make_job(ip, "path(n0_0,Z,P)", slots);
      jr.opts.cancel = &flag;
      const JobTicket t = exec.submit(std::move(jr));
      EXPECT_EQ(t.wait().outcome, search::Outcome::Cancelled) << slots;
      EXPECT_TRUE(t.wait().solutions.empty()) << slots;
    }
    {  // the caller's flag, set by the first answer
      std::atomic<bool> flag{false};
      JobRequest jr = make_job(ip, "path(n0_0,Z,P)", slots);
      jr.opts.cancel = &flag;
      jr.on_answer = [&flag](const search::Solution&) { flag = true; };
      const JobTicket t = exec.submit(std::move(jr));
      EXPECT_EQ(t.wait().outcome, search::Outcome::Cancelled) << slots;
      EXPECT_LT(t.wait().solutions.size(), all) << slots;
    }
    {  // the ticket's cancel while the caller's flag stays clear
      std::atomic<bool> flag{false};
      Latch latch;
      JobRequest jr = make_job(ip, "path(n0_0,Z,P)", slots);
      jr.opts.cancel = &flag;
      jr.on_answer = [&latch](const search::Solution&) { latch.hold(); };
      const JobTicket t = exec.submit(std::move(jr));
      latch.wait_entered(1);
      EXPECT_TRUE(t.cancel());
      latch.release();
      EXPECT_EQ(t.wait().outcome, search::Outcome::Cancelled) << slots;
      EXPECT_LT(t.wait().solutions.size(), all) << slots;
    }
  }
}

// ------------------------------------------------- async QueryService --

TEST(ServiceSubmit, TicketWaitMatchesSyncQuery) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  auto t = svc.submit({.text = "gf(sam,G)"});
  ASSERT_TRUE(t.valid());
  EXPECT_GT(t.id(), 0u);
  const auto& r = t.wait();
  EXPECT_TRUE(t.poll());
  EXPECT_EQ(r.status, QueryStatus::Ok);
  EXPECT_EQ(r.answers, cold_texts(workloads::figure1_family(), "gf(sam,G)"));
  EXPECT_EQ(t.queue_position(), 0u);  // done → not queued
}

TEST(ServiceSubmit, OnCompleteFiresBeforeWaitReturns) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  std::atomic<bool> fired{false};
  SubmitOptions so;
  so.on_complete = [&](const service::QueryResponse& r) {
    EXPECT_EQ(r.status, QueryStatus::Ok);
    fired = true;
  };
  auto t = svc.submit({.text = "gf(sam,G)"}, so);
  t.wait();
  EXPECT_TRUE(fired.load());
}

TEST(ServiceSubmit, ParseErrorAndCacheHitCompleteImmediately) {
  QueryService svc;
  svc.consult(workloads::figure1_family());

  auto bad = svc.submit({.text = "gf(sam,"});
  EXPECT_TRUE(bad.poll());  // finished before submit returned
  EXPECT_EQ(bad.wait().status, QueryStatus::ParseError);
  EXPECT_FALSE(bad.wait().error.empty());

  svc.query("gf(sam,G)");  // populate the cache
  auto warm = svc.submit({.text = "gf(sam,G)"});
  EXPECT_TRUE(warm.poll());
  EXPECT_TRUE(warm.wait().from_cache);
}

TEST(ServiceSubmit, RejectedCarriesErrorText) {
  service::ServiceOptions so;
  so.max_concurrent_queries = 1;
  so.admission_queue_limit = 0;  // no waiting room: second submit sheds
  QueryService svc(so);
  svc.consult(workloads::layered_dag(6, 4));

  Latch latch;
  SubmitOptions hold;
  hold.on_answer = [&](const std::string&) { latch.hold(); };
  auto held = svc.submit({.text = "path(n0_0,Z,P)", .workers = 2}, hold);
  latch.wait_entered(1);  // running: the one cap slot is taken
  auto shed = svc.submit({.text = "path(n0_0,Z,P)"});
  EXPECT_TRUE(shed.poll());
  const auto& r = shed.wait();
  EXPECT_EQ(r.status, QueryStatus::Rejected);
  EXPECT_EQ(r.error, "admission queue full");
  EXPECT_EQ(service::query_status_name(r.status), std::string("rejected"));
  held.cancel();
  latch.release();
  held.wait();
  EXPECT_EQ(svc.stats().rejected, 1u);
}

TEST(ServiceSubmit, CancelRunningKeepsPartialAnswers) {
  QueryService svc;
  svc.consult(workloads::layered_dag(7, 4));
  std::atomic<int> seen{0};
  SubmitOptions so;
  so.on_answer = [&](const std::string&) { ++seen; };
  auto t = svc.submit({.text = "path(n0_0,Z,P)", .workers = 4}, so);
  while (seen.load() == 0 && !t.poll()) std::this_thread::yield();
  const bool cancelled = t.cancel();
  const auto& r = t.wait();
  if (cancelled) {
    EXPECT_EQ(r.status, QueryStatus::Cancelled);
    EXPECT_EQ(r.outcome, search::Outcome::Cancelled);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(service::query_status_name(r.status), std::string("cancelled"));
    EXPECT_EQ(svc.stats().cancelled, 1u);
  } else {
    EXPECT_EQ(r.status, QueryStatus::Ok);  // finished first: benign race
  }
  // Cancelled results are partial: they must not poison the cache.
  EXPECT_FALSE(svc.query("path(n0_0,Z,P)").from_cache);
}

TEST(ServiceSubmit, QueuedTicketReportsPositionAndCancels) {
  service::ServiceOptions so;
  so.max_concurrent_queries = 1;
  so.admission_queue_limit = 4;
  QueryService svc(so);
  svc.consult(workloads::layered_dag(6, 4));

  Latch latch;
  SubmitOptions hold;
  hold.on_answer = [&](const std::string&) { latch.hold(); };
  auto held = svc.submit({.text = "path(n0_0,Z,P)", .workers = 2}, hold);
  latch.wait_entered(1);  // running, and holding the one cap slot
  auto q1 = svc.submit({.text = "f(X)"});
  auto q2 = svc.submit({.text = "g(X)"});
  EXPECT_EQ(held.queue_position(), 0u);
  EXPECT_EQ(q1.queue_position(), 1u);
  EXPECT_EQ(q2.queue_position(), 2u);
  EXPECT_TRUE(q2.cancel());
  EXPECT_TRUE(q2.poll());  // completed on the cancelling thread
  EXPECT_EQ(q2.wait().status, QueryStatus::Cancelled);
  EXPECT_EQ(q2.wait().error, "cancelled while queued");
  EXPECT_FALSE(q2.cancel());
  EXPECT_EQ(q1.queue_position(), 1u);
  held.cancel();
  latch.release();
  EXPECT_EQ(held.wait().error, "cancelled by client");
  EXPECT_EQ(q1.wait().status, QueryStatus::Ok);  // started once held ended
  EXPECT_EQ(svc.stats().cancelled, 2u);
}

// The probe setup: a cap above the pool size adds no waiting room, and
// every query no worker has started reports its place in submit order.
TEST(ServiceSubmit, QueuedTicketsReportPositionsInSubmitOrder) {
  service::ServiceOptions so;
  so.executor_workers = 2;
  so.max_concurrent_queries = 4;
  so.admission_queue_limit = 6;
  so.cache_enabled = false;
  QueryService svc(so);
  svc.consult(workloads::figure1_family());

  Latch latch;
  SubmitOptions hold;
  hold.on_answer = [&](const std::string&) { latch.hold(); };
  std::vector<service::QueryTicket> t;
  for (int i = 0; i < 8; ++i) t.push_back(svc.submit({.text = "gf(sam,G)"}, hold));
  latch.wait_entered(2);  // both workers hold a running query
  auto s = svc.stats().admission;
  EXPECT_EQ(s.running, 2u);
  EXPECT_EQ(s.queued, 6u);
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t[i].queue_position(), i < 2 ? 0u : i - 1) << i;

  // The line is full: the next query is shed.
  EXPECT_EQ(svc.submit({.text = "gf(sam,G)"}).wait().status,
            QueryStatus::Rejected);
  // A cancelled queued ticket frees its place for the next submit.
  EXPECT_TRUE(t[4].cancel());
  EXPECT_EQ(t[4].wait().error, "cancelled while queued");
  EXPECT_EQ(t[5].queue_position(), 3u);
  t.push_back(svc.submit({.text = "gf(sam,G)"}, hold));
  EXPECT_FALSE(t.back().poll());
  EXPECT_EQ(t.back().queue_position(), 6u);

  latch.release();
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t[i].wait().status,
              i == 4 ? QueryStatus::Cancelled : QueryStatus::Ok) << i;
  s = svc.stats().admission;
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 9u);
}

TEST(ServiceSubmit, ConcurrencyCapBoundsRunningJobs) {
  service::ServiceOptions so;
  so.executor_workers = 4;
  so.max_concurrent_queries = 1;
  so.cache_enabled = false;
  QueryService svc(so);
  svc.consult(workloads::layered_dag(4, 3));
  const auto expect = cold_texts(workloads::layered_dag(4, 3), "path(n0_0,Z,P)");

  // Sampled from inside running jobs (their answer callbacks) and from a
  // watcher thread: never more than one job running.
  std::atomic<std::size_t> most{0};
  const auto sample = [&] {
    const std::size_t running = svc.executor()->stats().running;
    std::size_t seen = most.load();
    while (running > seen && !most.compare_exchange_weak(seen, running)) {
    }
  };
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load()) sample();
  });
  SubmitOptions probe;
  probe.on_answer = [&](const std::string&) { sample(); };
  std::vector<service::QueryTicket> tickets;
  for (unsigned i = 0; i < 16; ++i)
    tickets.push_back(
        svc.submit({.text = "path(n0_0,Z,P)", .workers = 1 + i % 3}, probe));
  for (auto& t : tickets) {
    EXPECT_EQ(t.wait().status, QueryStatus::Ok);
    EXPECT_EQ(t.wait().answers, expect);
  }
  done = true;
  watcher.join();
  EXPECT_EQ(most.load(), 1u);
}

TEST(ServiceSubmit, EachShedIsOneRejectedCountAndEvent) {
  obs::TraceSink sink;
  service::ServiceOptions so;
  so.executor_workers = 2;
  so.max_concurrent_queries = 1;
  so.admission_queue_limit = 1;
  so.cache_enabled = false;
  so.trace = &sink;
  QueryService svc(so);
  svc.consult(workloads::figure1_family());

  Latch latch;
  SubmitOptions hold;
  hold.on_answer = [&](const std::string&) { latch.hold(); };
  auto running = svc.submit({.text = "gf(sam,G)"}, hold);
  latch.wait_entered(1);
  auto waiting = svc.submit({.text = "gf(sam,G)"});
  EXPECT_EQ(waiting.queue_position(), 1u);  // the line of one is full
  for (int i = 0; i < 3; ++i) {
    auto shed = svc.submit({.text = "gf(sam,G)"});
    EXPECT_TRUE(shed.poll());
    EXPECT_EQ(shed.wait().status, QueryStatus::Rejected);
    EXPECT_EQ(shed.wait().error, "admission queue full");
    EXPECT_EQ(shed.queue_position(), 0u);
    EXPECT_FALSE(shed.cancel());
  }
  latch.release();
  EXPECT_EQ(running.wait().status, QueryStatus::Ok);
  EXPECT_EQ(waiting.wait().status, QueryStatus::Ok);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.admission.rejected, 3u);
  std::size_t shed_events = 0;
  for (const auto& e : sink.snapshot())
    shed_events += e.kind == static_cast<std::uint16_t>(obs::EventKind::kAdmissionShed);
  EXPECT_EQ(shed_events, 3u);
}

// -------------------------------------- streaming: byte-identity et al --

TEST(ServiceStream, StreamedEqualsBatchAcrossStrategies) {
  const std::string dag = workloads::layered_dag(5, 3);
  const auto expect = cold_texts(dag, "path(n0_0,Z,P)");
  for (const auto strategy :
       {search::Strategy::DepthFirst, search::Strategy::BreadthFirst,
        search::Strategy::BestFirst}) {
    for (const unsigned workers : {1u, 4u}) {
      QueryService svc;
      svc.consult(dag);
      std::mutex mu;
      std::vector<std::string> streamed;
      SubmitOptions so;
      so.on_answer = [&](const std::string& a) {
        std::lock_guard lock(mu);
        streamed.push_back(a);
      };
      so.stream = true;
      QueryRequest req;
      req.text = "path(n0_0,Z,P)";
      req.strategy = strategy;
      req.workers = workers;
      auto t = svc.submit(req, so);
      ASSERT_NE(t.stream(), nullptr);
      std::vector<std::string> pulled;
      while (auto a = t.stream()->next()) pulled.push_back(std::move(*a));
      const auto& r = t.wait();
      ASSERT_EQ(r.status, QueryStatus::Ok)
          << search::strategy_name(strategy) << " workers " << workers;
      // The batch list is sorted+deduplicated; both delivery paths must be
      // byte-identical to it as a set (discovery order differs).
      EXPECT_EQ(r.answers, expect);
      EXPECT_EQ(sorted(streamed), expect);
      EXPECT_EQ(sorted(pulled), expect);
    }
  }
}

TEST(ServiceStream, CacheHitStreamsTheCachedAnswers) {
  QueryService svc;
  svc.consult(workloads::figure1_family());
  svc.query("gf(sam,G)");  // populate
  std::vector<std::string> streamed;
  SubmitOptions so;
  so.on_answer = [&](const std::string& a) { streamed.push_back(a); };
  auto t = svc.submit({.text = "gf(sam,G)"}, so);
  const auto& r = t.wait();
  EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(sorted(streamed), r.answers);
}

TEST(ServiceStream, ConsultDuringStreamingKeepsSnapshotIsolation) {
  QueryService svc;
  svc.consult(workloads::layered_dag(5, 3));
  const auto expect = cold_texts(workloads::layered_dag(5, 3),
                                 "path(n0_0,Z,P)");
  std::atomic<bool> started{false};
  std::mutex mu;
  std::vector<std::string> streamed;
  SubmitOptions so;
  so.on_answer = [&](const std::string& a) {
    started = true;
    std::lock_guard lock(mu);
    streamed.push_back(a);
  };
  auto t = svc.submit({.text = "path(n0_0,Z,P)", .workers = 4}, so);
  while (!started.load() && !t.poll()) std::this_thread::yield();
  // Mid-stream consults publish new epochs; the running query's snapshot
  // pin keeps its view — the answer set must be exactly the old one.
  svc.consult("path(n0_0,extra,p(extra)).");
  svc.consult("path(n0_0,extra2,p(extra2)).");
  const auto& r = t.wait();
  EXPECT_EQ(r.status, QueryStatus::Ok);
  EXPECT_EQ(r.answers, expect);
  EXPECT_EQ(sorted(streamed), expect);
  // A fresh query sees the consults.
  const auto after = svc.query("path(n0_0,Z,P)");
  EXPECT_EQ(after.answers.size(), expect.size() + 2);
}

// ----------------------------------------------------------------- storm --

// The ThreadSanitizer target: N async clients (mixed submit/stream/cancel,
// some sheds) against a 4-worker pool while a consulter publishes new
// epochs. Every ticket must complete with an accounted-for status.
TEST(ServiceStorm, AsyncClientsVsSmallPool) {
  service::ServiceOptions so;
  so.executor_workers = 4;
  so.max_concurrent_queries = 4;
  so.admission_queue_limit = 8;
  QueryService svc(so);
  svc.consult(workloads::figure1_family());
  svc.consult(workloads::layered_dag(3, 3));

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::atomic<int> bad{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const char* queries[] = {"gf(sam,G)", "path(n0_0,Z,P)", "f(X,Y)"};
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest req;
        req.text = queries[(c + i) % 3];
        req.workers = (i % 4 == 1) ? 2u : 1u;
        if (i % 7 == 5) req.budget.max_nodes = 3;
        std::atomic<int> streamed{0};
        SubmitOptions sop;
        if (i % 3 == 0)
          sop.on_answer = [&streamed](const std::string&) { ++streamed; };
        auto t = svc.submit(req, sop);
        if (i % 11 == 7) t.cancel();  // any phase: queued, running, done
        const auto& r = t.wait();
        switch (r.status) {
          case QueryStatus::Ok:
          case QueryStatus::Truncated:
          case QueryStatus::Rejected:
          case QueryStatus::Cancelled:
            break;
          default:
            ++bad;
        }
        if (r.status == QueryStatus::Ok && sop.on_answer &&
            static_cast<std::size_t>(streamed.load()) < r.answers.size())
          ++bad;  // every batch answer was streamed first
      }
    });
  }
  std::thread consulter([&] {
    for (int i = 0; i < 15; ++i) {
      svc.consult("extra" + std::to_string(i) + "(x).");
      std::this_thread::yield();
    }
  });
  for (auto& t : clients) t.join();
  consulter.join();

  EXPECT_EQ(bad.load(), 0);
  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, kClients * kPerClient);
  // Every query is accounted for exactly once in the terminal counters or
  // completed Ok (cache hits included in queries).
  EXPECT_EQ(stats.admission.running, 0u);
  EXPECT_EQ(stats.admission.queued, 0u);
}

// Destruction with live tickets: the pool cancels queued work and drains
// running jobs; every outstanding ticket completes.
TEST(ServiceStorm, DestructionCompletesOutstandingTickets) {
  const auto expect_completed =
      [](const std::vector<service::QueryTicket>& tickets) {
        for (const auto& t : tickets) {
          EXPECT_TRUE(t.poll());  // completed before the destructor returned
          const auto& r = t.wait();
          EXPECT_TRUE(r.status == QueryStatus::Ok ||
                      r.status == QueryStatus::Cancelled)
              << service::query_status_name(r.status);
          if (r.status == QueryStatus::Cancelled)
            EXPECT_EQ(r.error, "service shutting down");
        }
      };
  {
    // One worker held mid-search, one query in line behind it: teardown
    // stops the held query at its next expansion boundary.
    Latch latch;
    service::QueryTicket running, queued;
    std::thread releaser;
    {
      service::ServiceOptions so;
      so.executor_workers = 1;
      QueryService svc(so);
      svc.consult(workloads::figure1_family());
      SubmitOptions hold;
      hold.on_answer = [&](const std::string&) { latch.hold(); };
      running = svc.submit({.text = "gf(sam,G)"}, hold);
      latch.wait_entered(1);
      queued = svc.submit({.text = "gf(dan,G)"});
      EXPECT_EQ(queued.queue_position(), 1u);
      releaser = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        latch.release();
      });
    }  // ~QueryService
    releaser.join();
    expect_completed({running, queued});
    EXPECT_EQ(running.wait().status, QueryStatus::Cancelled);
    EXPECT_EQ(running.wait().error, "service shutting down");
    EXPECT_EQ(queued.wait().error, "service shutting down");
  }
  {
    std::vector<service::QueryTicket> tickets;
    {
      service::ServiceOptions so;
      so.executor_workers = 2;
      so.max_concurrent_queries = 2;
      so.admission_queue_limit = 16;
      QueryService svc(so);
      svc.consult(workloads::layered_dag(6, 4));
      for (int i = 0; i < 12; ++i)
        tickets.push_back(
            svc.submit({.text = "path(n0_0,Z,P)", .workers = 2}));
    }  // ~QueryService
    expect_completed(tickets);
  }
  // Short queries behind a one-job cap: pool workers finish jobs and
  // start queued ones while the destructor tears the pool down.
  for (int cycle = 0; cycle < 50; ++cycle) {
    std::vector<service::QueryTicket> tickets;
    {
      service::ServiceOptions so;
      so.executor_workers = 2;
      so.max_concurrent_queries = 1;
      so.cache_enabled = false;
      QueryService svc(so);
      svc.consult(workloads::figure1_family());
      for (int i = 0; i < 8; ++i)
        tickets.push_back(svc.submit({.text = "gf(sam,G)"}));
      std::this_thread::sleep_for(std::chrono::microseconds(cycle % 5 * 250));
    }  // ~QueryService
    expect_completed(tickets);
  }
}
