#pragma once
/// \file
/// \brief Flight recorder: lock-free per-thread ring buffers of trace events.
///
/// The engine's concurrency machinery (work-stealing deques, copy-on-steal
/// spill handles, the serving layer's admission queue) previously exposed
/// only after-the-fact counter totals. The flight recorder adds the *when*:
/// every interesting scheduler, runner, and service transition can drop a
/// 16-byte timestamped event into a fixed-capacity ring buffer,
/// flight-recorder style — old events are overwritten, never blocking the
/// writer, and a dropped-event counter records how much history was lost.
///
/// Design constraints, in order:
///
///   1. **Null sink is free.** Every instrumentation site is a single
///      pointer test (`trace(sink, ...)` with `sink == nullptr`). No
///      timestamps are taken, no TLS is touched. Benchmarks gate the
///      attached-ring overhead too (BENCH_micro.json
///      `trace_overhead_ratio`), but the null path is the default and must
///      stay unmeasurable.
///   2. **Recording is lock-free.** Each *thread* that records into a
///      `TraceSink` gets its own `TraceShard` — a private single-writer
///      ring. Stores into the ring are plain stores; only the ring head is
///      an atomic (released after the slot is written) so concurrent
///      `recorded()` / `dropped()` reads are race-free. Shard registration
///      (first event from a new thread) takes a mutex once per thread.
///   3. **Events are tiny and closed-world.** 16 bytes: nanosecond
///      timestamp relative to the sink's epoch, a kind id drawn from the
///      `BLOG_TRACE_EVENTS` X-macro below, a lane (worker id, or a client
///      lane for service-side events), and a 32-bit payload whose meaning
///      is per-kind (victim id, batch size, query id, ...).
///
/// Export (`snapshot()`, `write_chrome_trace()` in chrome_trace.hpp)
/// assumes writers are quiescent; the live-safe surface is limited to the
/// monotonic `recorded()` / `dropped()` counters.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace blog::obs {

/// X-macro table of every trace event kind: `X(EnumName, "display-name",
/// "category")`. The display name is what Perfetto shows; the category
/// groups events into `sched` (work-stealing scheduler internals), `runner`
/// (per-worker OR-tree execution), `service` (QueryService request
/// lifecycle), `executor` (persistent-pool job lifecycle), and `andp`
/// (AND-parallel fork/join lifecycle).
/// docs/OBSERVABILITY.md's event table is generated from this list —
/// extend both together.
#define BLOG_TRACE_EVENTS(X)                                              \
  /* runner: per-worker OR-tree execution */                              \
  X(ExpandBurst, "runner.burst", "runner")                                \
  X(NetworkTake, "runner.network_take", "runner")                         \
  X(Migrate, "runner.migrate", "runner")                                  \
  X(Solution, "runner.solution", "runner")                                \
  X(HandleFulfill, "spill.fulfill", "runner")                             \
  /* sched: work-stealing scheduler internals */                          \
  X(SpillPublish, "spill.publish", "sched")                               \
  X(SpillBatch, "spill.batch", "sched")                                   \
  X(StealAttempt, "steal.attempt", "sched")                               \
  X(Steal, "steal.take", "sched")                                         \
  X(HandleClaim, "spill.claim", "sched")                                  \
  X(HandleGrant, "spill.grant", "sched")                                  \
  X(HandleDead, "spill.dead", "sched")                                    \
  X(StarveOn, "sched.starving_on", "sched")                               \
  X(StarveOff, "sched.starving_off", "sched")                             \
  /* service: QueryService request lifecycle */                           \
  X(QueryBegin, "query.begin", "service")                                 \
  X(QueryEnd, "query.end", "service")                                     \
  X(CacheHit, "cache.hit", "service")                                     \
  X(CacheMiss, "cache.miss", "service")                                   \
  X(AdmissionShed, "admission.shed", "service")                           \
  X(BudgetExhausted, "budget.exhausted", "service")                       \
  /* executor: persistent-pool job lifecycle (payload = job/query id) */  \
  X(JobSubmit, "job.submit", "executor")                                  \
  X(JobStart, "job.start", "executor")                                    \
  X(JobDone, "job.done", "executor")                                      \
  X(JobCancel, "job.cancel", "executor")                                  \
  X(AnswerStreamed, "answer.stream", "executor")                          \
  /* andp: AND-parallel fork/join lifecycle */                            \
  X(AndFork, "andp.fork", "andp")                                         \
  X(AndJoin, "andp.join", "andp")

/// Kind of a trace event. One enumerator per `BLOG_TRACE_EVENTS` row, in
/// table order, plus `kCount` (the number of kinds).
enum class EventKind : std::uint16_t {
#define BLOG_OBS_ENUM(name, display, cat) k##name,
  BLOG_TRACE_EVENTS(BLOG_OBS_ENUM)
#undef BLOG_OBS_ENUM
      kCount
};

/// Display name ("steal.take") for a kind; "?" for out-of-range values.
const char* trace_event_name(EventKind kind) noexcept;

/// Category ("sched" / "runner" / "service") for a kind; "?" if unknown.
const char* trace_event_category(EventKind kind) noexcept;

/// One recorded event. Exactly 16 bytes so a default shard (65536 events)
/// costs 1 MiB and a ring store is two cache-line-friendly writes.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< Nanoseconds since the owning sink's epoch.
  std::uint16_t kind = 0;    ///< An EventKind value.
  std::uint16_t lane = 0;    ///< Worker id, or a client lane (>= kClientLaneBase).
  std::uint32_t payload = 0; ///< Per-kind detail (victim, batch size, query id...).
};
static_assert(sizeof(TraceEvent) == 16, "trace events must stay 16 bytes");

/// Service-side events are recorded from client threads, not workers; their
/// lanes are allocated from this base upward (see client_lane()) so the
/// Chrome exporter can keep worker lanes and client lanes apart.
inline constexpr std::uint16_t kClientLaneBase = 1000;

/// A process-lifetime lane id for the calling (non-worker) thread, starting
/// at kClientLaneBase. Stable per thread, never reused.
std::uint16_t client_lane() noexcept;

/// Fixed-capacity single-writer ring of trace events.
///
/// Exactly one thread stores into a shard (the thread it was registered
/// for); the head counter is published with release semantics so other
/// threads may read `written()` / `dropped()` live. The ring contents are
/// only read after writers quiesce (snapshot/export).
class TraceShard {
 public:
  /// \param capacity Ring capacity in events; rounded up to a power of two
  ///   (minimum 2) so wrapping is a mask, not a division.
  explicit TraceShard(std::size_t capacity);

  /// Record one event (writer thread only). Overwrites the oldest event
  /// once the ring is full; never blocks, never allocates.
  void record(const TraceEvent& e) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    ring_[static_cast<std::size_t>(head) & mask_] = e;
    head_.store(head + 1, std::memory_order_release);
  }

  /// Total events ever recorded into this shard (monotonic, live-safe).
  std::uint64_t written() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Events overwritten before they could be exported (monotonic,
  /// live-safe): `max(0, written() - capacity())`.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t w = written();
    return w > capacity() ? w - capacity() : 0;
  }

  /// Ring capacity in events (after power-of-two rounding).
  std::uint64_t capacity() const noexcept { return mask_ + 1; }

  /// Copy the surviving events, oldest first. Writer must be quiescent.
  std::vector<TraceEvent> events() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// Owner of the per-thread shards for one tracing session.
///
/// A sink is attached to a run via `ParallelOptions::trace`,
/// `SearchOptions::trace`, or `ServiceOptions::trace` (all default to
/// nullptr = tracing off). Any thread may call `record()`; the first call
/// from each thread registers a private shard under a mutex, subsequent
/// calls hit a thread-local cache and are lock-free.
class TraceSink {
 public:
  /// Default per-thread ring capacity: 65536 events (1 MiB/thread). Large
  /// enough that the CI traced `parallel_search` run drops nothing.
  static constexpr std::size_t kDefaultShardCapacity = std::size_t{1} << 16;

  /// \param shard_capacity Per-thread ring capacity in events (rounded up
  ///   to a power of two, minimum 2).
  explicit TraceSink(std::size_t shard_capacity = kDefaultShardCapacity);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Record one event from the calling thread. Lock-free after the calling
  /// thread's first event.
  void record(std::uint16_t lane, EventKind kind,
              std::uint32_t payload = 0) noexcept {
    TraceEvent e;
    e.ts_ns = elapsed_ns();
    e.kind = static_cast<std::uint16_t>(kind);
    e.lane = lane;
    e.payload = payload;
    shard_for_this_thread().record(e);
  }

  /// Total events recorded across all shards (monotonic, live-safe).
  std::uint64_t recorded() const;

  /// Total events overwritten across all shards (monotonic, live-safe).
  /// Zero means the export sees the complete history.
  std::uint64_t dropped() const;

  /// Number of threads that have recorded into this sink.
  std::size_t shard_count() const;

  /// All surviving events merged across shards, sorted by timestamp.
  /// Writers must be quiescent.
  std::vector<TraceEvent> snapshot() const;

  /// Nanoseconds elapsed since this sink was constructed.
  std::uint64_t elapsed_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

 private:
  TraceShard& shard_for_this_thread();

  const std::size_t shard_capacity_;
  const std::uint64_t sink_id_;  // process-unique; guards the TLS cache
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards shards_ growth only
  std::vector<std::unique_ptr<TraceShard>> shards_;
};

/// The instrumentation entry point: record `kind` on `lane` if `sink` is
/// attached, do nothing (one predictable branch) if it is null. All ~20
/// event sites across parallel/, search/ and service/ go through this.
inline void trace(TraceSink* sink, std::uint16_t lane, EventKind kind,
                  std::uint32_t payload = 0) noexcept {
  if (sink != nullptr) sink->record(lane, kind, payload);
}

}  // namespace blog::obs
