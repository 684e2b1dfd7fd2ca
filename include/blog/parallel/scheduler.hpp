/// \file
/// \brief The work-stealing scheduler of the thread-parallel OR-engine.
///
/// §6's machine lets a freed processor acquire the chain with the minimum
/// bound through a dedicated minimum-seeking network. WorkStealingScheduler
/// realizes that network without a central lock: each worker owns a
/// bounded deque of detached choices; spills and D-threshold migrations
/// land in the owner's deque (overflow is offloaded to the least-loaded
/// victim), and idle workers *steal half* of the best victim's deque. The
/// minimum-seeking behaviour survives as a lock-free array of per-worker
/// published minima that idle workers scan to pick the victim holding the
/// globally lowest bound. Termination is detected distributedly by an
/// outstanding-work counter instead of a central condition variable.
///
/// On top of materialized nodes, the work-stealing scheduler carries
/// **copy-on-steal spill handles** (search::SpillHandle): lightweight deque
/// entries whose state still lives, free, on the owning worker's pending
/// stack. §6 only requires the *bound* to be visible to the network; the
/// deep copy is deferred to the moment a thief actually wins the handle's
/// claim CAS, at which point the owner materializes the checkpointed state
/// and deposits it in the handle. Owner-reclaimed spills never copy.
///
/// A thief that wins a handle's claim CAS waits on the handle until the
/// owner deposits the copy at its next expansion boundary (or kills the
/// handle on stop). See docs/ARCHITECTURE.md for the protocol walk-through.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "blog/obs/trace.hpp"      // obs::TraceSink (flight recorder)
#include "blog/search/node.hpp"
#include "blog/search/runner.hpp"  // search::SpillHandle

namespace blog::parallel {

/// Shared traffic counters. `lock_acquisitions` counts every mutex lock
/// any scheduler path takes.
///
/// Every field is backed by its own relaxed atomic and is **monotonic**
/// (except none — all only grow), so stats() may be called from
/// any thread at any time during a live run: the snapshot is a set of
/// individually-consistent monotone counters, never a half-written struct.
/// Cross-counter invariants (e.g. handle_grants <= handle_claims) hold
/// exactly only at quiescence.
struct SchedulerStats {
  std::uint64_t pushes = 0;             ///< chains entering any queue
  std::uint64_t pops = 0;               ///< chains handed to processors
  std::uint64_t grants = 0;             ///< idle (blocking) acquisitions
  std::uint64_t steals = 0;             ///< chains moved by steal-half
  std::uint64_t steal_attempts = 0;     ///< victim scans that found a target
  std::uint64_t offloads = 0;           ///< overflow batches pushed to a victim
  std::uint64_t lock_acquisitions = 0;  ///< mutex locks taken, all paths
  // Copy-on-steal traffic.
  std::uint64_t handles_published = 0;  ///< lazy entries entering deques
  std::uint64_t handle_claims = 0;      ///< thief claim CASes won
  std::uint64_t handle_grants = 0;      ///< claims that yielded a node
  std::uint64_t stale_discards = 0;     ///< dead/reclaimed entries dropped
  // Claim-wait traffic: a thief blocks on a claimed handle until the
  // owner's deposit lands.
  std::uint64_t claim_wait_spins = 0;   ///< yield/sleep iterations while waiting
  std::uint64_t claim_wait_us = 0;      ///< µs from claim won to node in hand
  /// Total on_expanded() calls — chains consumed engine-wide. Unlike
  /// ParallelResult::WorkerStats (plain structs populated only at join),
  /// this is live-safe: repl `:stats` and trace flushes read it mid-run.
  std::uint64_t expansions = 0;
};

/// Tuning of the work-stealing scheduler's adaptive bounds. Each worker
/// tracks an EWMA of its steal pressure — were any of its entries stolen
/// (or was anyone starving) since its last spill? — and scales both its
/// deque capacity and the suggested engine-side local capacity around the
/// configured seeds: pressure 0.5 is neutral, 0 grows toward the upper
/// bound of 512 (lone-hot workers stop sharding their pool), 1 shrinks
/// toward the lower bound of 4 (saturated pools shed earlier).
struct SchedulerTuning {
  bool adaptive = true;             ///< float capacities with steal pressure
  std::uint32_t ewma_window = 64;   ///< EWMA horizon, in spill events
  std::size_t local_capacity_seed = 8;  ///< engine local_capacity seed
  /// Flight recorder (see obs/trace.hpp). When non-null the scheduler
  /// records steal/spill/claim/starvation events into it; null (the
  /// default) compiles every site down to one branch.
  obs::TraceSink* trace = nullptr;
};

/// Work-stealing scheduler: per-worker bounded deques, lock-free published
/// minima, minimum-seeking steal-half, counter-based distributed termination,
/// copy-on-steal spill handles and adaptive per-worker capacities. Worker
/// ids address the per-worker deques.
class WorkStealingScheduler {
public:
  /// `deque_capacity` seeds each worker's deque bound; a push that
  /// overflows it offloads the worst-bound half to the least-loaded other
  /// worker. With `tuning.adaptive`, the bound (and the local-capacity
  /// hint) float around their seeds with observed steal pressure.
  /// `workers` and `deque_capacity` are clamped to at least 1.
  explicit WorkStealingScheduler(unsigned workers,
                                 std::size_t deque_capacity = 64,
                                 SchedulerTuning tuning = {});

  /// Seed a root chain (before workers start).
  void push_root(search::DetachedNode n);

  /// Park a batch of detached choices migrated out by `worker`.
  void push_batch(unsigned worker, std::vector<search::DetachedNode> ns);

  /// Park lazy spill handles published by `worker`'s runner. The chains
  /// stay on the runner's stack; only bounds enter the network.
  void push_handles(unsigned worker,
                    std::vector<std::shared_ptr<search::SpillHandle>> hs);

  /// Adaptive local-capacity suggestion for `worker` (how many pending
  /// choices to keep private before publishing). `fallback` is the
  /// engine-configured static knob, returned verbatim when adaptivity is
  /// off.
  [[nodiscard]] std::size_t local_capacity_hint(unsigned worker,
                                                std::size_t fallback) const;

  /// §6's D-threshold test: if some queued chain's bound is lower than
  /// `local_min - d`, acquire it (the caller migrates its pool out first
  /// or right after). Non-blocking; nullopt = keep working locally.
  std::optional<search::Node> try_acquire_better(unsigned worker,
                                                 double local_min, double d);

  /// Idle acquisition: wait until a chain is available (always the best
  /// one the published minima show), the search terminates, or stop().
  /// nullopt = done.
  std::optional<search::Node> acquire(unsigned worker);

  /// Account one expansion: the expanded chain dies, `children` chains
  /// are born (queued or kept in the worker's local pool). Termination
  /// is exactly the outstanding count reaching zero.
  void on_expanded(std::size_t children);

  /// Abort: acquire() returns nullopt from now on.
  void stop();
  /// True once stop() has been called.
  [[nodiscard]] bool stopped() const;

  /// Lock-free: true while some worker is idle (blocked in acquire())
  /// waiting for work.
  [[nodiscard]] bool starving() const {
    return idle_.load(std::memory_order_relaxed) > 0;
  }

  /// Snapshot of the shared traffic counters. Safe to call from any
  /// thread while workers are running: every field is read from its own
  /// monotonic relaxed atomic (see SchedulerStats).
  [[nodiscard]] SchedulerStats stats() const;

  /// Lowest bound published by any deque (lock-free scan; approximate
  /// under concurrent mutation). nullopt = all deques empty.
  [[nodiscard]] std::optional<double> min_bound() const;

  /// Current adaptive deque capacity of `worker` (== the seed when
  /// adaptivity is off). Exposed for tests and the bench reporter.
  [[nodiscard]] std::size_t deque_capacity(unsigned worker) const;

private:
  // One deque entry: either a materialized chain (`lazy == nullptr`) or a
  // copy-on-steal handle whose state still lives on the owner's stack.
  struct Entry {
    double bound;
    std::uint64_t seq;
    search::Node node;
    std::shared_ptr<search::SpillHandle> lazy;
  };
  // Min-heap order on (bound, insertion seq): equal bounds leave in
  // insertion order.
  struct EntryCmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.seq > b.seq;
    }
  };
  // One worker's deque plus its published (lock-free readable) summary
  // and adaptive bounds. Padded so scans of neighbours' summaries never
  // false-share.
  struct alignas(64) Deque {
    mutable std::mutex mu;
    std::vector<Entry> pool;  // std::*_heap managed, front = minimum bound
    std::atomic<double> pub_min;
    std::atomic<std::uint32_t> pub_size{0};
    // Adaptive bounds, published alongside the size/min summary.
    std::atomic<std::uint32_t> cap{64};
    std::atomic<std::uint32_t> local_hint{8};
    // Thefts (stolen entries + won handle claims) against this worker
    // since its last spill — the steal-pressure sample source.
    std::atomic<std::uint32_t> thefts_since_push{0};
    float pressure = 0.5f;  // EWMA, owner-updated under `mu`
  };

  enum class ClaimWait {
    Blocking,  // idle acquire: wait for the owner (stop-aware)
    Bounded,   // D-threshold probe: bounded spin, then un-claim
  };

  void publish(Deque& d);
  /// Owner-side EWMA update + capacity re-publication; called under
  /// `d.mu` by the worker that owns `d` while spilling.
  void adapt(Deque& d);
  /// Drop entries whose lazy handle was already resolved elsewhere
  /// (owner-reclaimed or dead). Called under `d.mu`.
  void sweep_stale_locked(Deque& d);
  /// Move out the arbitrary back half of a locked deque (steal-half /
  /// overflow shedding); the minimum stays behind at the heap front.
  std::vector<Entry> shed_half_locked(Deque& d);
  /// Pop the best entry of a locked deque.
  Entry pop_best_locked(Deque& d);
  /// Append entries to `worker`'s deque under its lock (overflow /
  /// steal-half loot / un-claimed handle re-parks).
  void park_entries(unsigned worker, std::vector<Entry> es);
  /// The shared spill path of push_batch/push_handles: enqueue on `self`'s
  /// deque, sweep stale entries, shed overflow to a starving peer, adapt.
  void enqueue_spill(unsigned self, std::vector<Entry> es);
  /// Record `n` entries moved by one cross-worker transfer to `thief`.
  void record_steal(unsigned thief, std::uint64_t n);
  /// Minimum-seeking victim selection over the published minima: the
  /// deque with the lowest one strictly below `require_below`, the own
  /// deque first on ties; `deques_.size()` = none found.
  unsigned pick_victim(unsigned self, double require_below,
                       bool include_self) const;
  /// Steal the best chain of `victim` for `thief`; when `bulk`, also move
  /// half of the remainder into the thief's deque (idle steal-half).
  /// Returns nullopt if the victim is empty, no longer beats
  /// `require_below` (stale published minimum), or a lazy target was lost
  /// to its owner / un-claimed — callers rescan.
  std::optional<search::Node> steal_from(unsigned thief, unsigned victim,
                                         double require_below, bool bulk,
                                         ClaimWait wait);
  /// Wait on a claimed handle until the owner deposits the node (kReady),
  /// kills it (kDead), or — in Bounded mode — the spin budget runs out
  /// and the claim is reverted and re-parked on `thief`'s deque.
  std::optional<search::Node> await_claim(
      unsigned thief, std::shared_ptr<search::SpillHandle> h,
      std::uint64_t entry_seq, ClaimWait wait);

  std::vector<std::unique_ptr<Deque>> deques_;
  std::size_t capacity_seed_;
  SchedulerTuning tuning_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::int64_t> inflight_;
  std::atomic<bool> stop_{false};
  std::atomic<int> idle_{0};  // workers currently blocked in acquire()

  // Stats, updated with relaxed atomics (hot-path friendly).
  std::atomic<std::uint64_t> pushes_{0}, pops_{0}, grants_{0}, steals_{0},
      steal_attempts_{0}, offloads_{0}, locks_{0};
  std::atomic<std::uint64_t> handles_published_{0}, handle_claims_{0},
      handle_grants_{0}, stale_discards_{0};
  std::atomic<std::uint64_t> claim_wait_spins_{0}, claim_wait_us_{0};
  std::atomic<std::uint64_t> expansions_{0};
};

}  // namespace blog::parallel
