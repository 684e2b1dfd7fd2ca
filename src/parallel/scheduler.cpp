#include "blog/parallel/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace blog::parallel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Where adaptive capacities stop, unless the seed itself lies outside.
constexpr std::size_t kMinCapacity = 4;
constexpr std::size_t kMaxCapacity = 512;

using obs::EventKind;
using search::SpillHandle;

/// Entry states that mean "this deque entry is garbage": the choice was
/// resolved away from the scheduler (owner reclaim, shutdown kill, or an
/// already-consumed grant).
bool handle_resolved(std::uint32_t s) {
  return s == SpillHandle::kOwnerTaken || s == SpillHandle::kDead ||
         s == SpillHandle::kTaken;
}

/// Steady-clock microseconds — the time base of claim-wait accounting.
std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkStealingScheduler::WorkStealingScheduler(unsigned workers,
                                             std::size_t deque_capacity,
                                             SchedulerTuning tuning)
    : capacity_seed_(std::max<std::size_t>(1, deque_capacity)),
      tuning_(std::move(tuning)),
      inflight_(0) {
  if (workers == 0) workers = 1;
  deques_.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    auto d = std::make_unique<Deque>();
    d->pub_min.store(kInf, std::memory_order_relaxed);
    d->cap.store(static_cast<std::uint32_t>(capacity_seed_),
                 std::memory_order_relaxed);
    d->local_hint.store(
        static_cast<std::uint32_t>(tuning_.local_capacity_seed),
        std::memory_order_relaxed);
    deques_.push_back(std::move(d));
  }
}

void WorkStealingScheduler::publish(Deque& d) {
  d.pub_min.store(d.pool.empty() ? kInf : d.pool.front().bound,
                  std::memory_order_release);
  d.pub_size.store(static_cast<std::uint32_t>(d.pool.size()),
                   std::memory_order_release);
}

void WorkStealingScheduler::adapt(Deque& d) {
  if (!tuning_.adaptive) return;
  // Steal-pressure sample: were any of this worker's entries actually
  // taken since its last spill, or is somebody starving right now? The
  // EWMA of that bit drives both bounds: pressure above the 0.5 neutral
  // point shrinks them (shed earlier, publish more), below grows them
  // (keep the pool whole — nobody wants it).
  const std::uint32_t stolen =
      d.thefts_since_push.exchange(0, std::memory_order_relaxed);
  const float sample =
      (stolen > 0 || idle_.load(std::memory_order_relaxed) > 0) ? 1.0f : 0.0f;
  const float alpha =
      2.0f / (static_cast<float>(std::max(1u, tuning_.ewma_window)) + 1.0f);
  d.pressure += alpha * (sample - d.pressure);
  // factor spans [1/64, 64] over pressure [1, 0]: wide enough to sweep a
  // seed of 8 across the whole [kMinCapacity, kMaxCapacity] range.
  const double factor = std::exp2((0.5 - static_cast<double>(d.pressure)) * 12.0);
  const auto scaled = [&](std::size_t seed) {
    const double v = std::round(static_cast<double>(seed) * factor);
    // Clamp around the seed: degenerate seeds (0 = always spill, huge =
    // never) keep their configured meaning.
    const double lo = static_cast<double>(std::min(seed, kMinCapacity));
    const double hi = static_cast<double>(std::max(seed, kMaxCapacity));
    return static_cast<std::uint32_t>(std::clamp(v, lo, hi));
  };
  d.cap.store(scaled(capacity_seed_), std::memory_order_relaxed);
  d.local_hint.store(scaled(tuning_.local_capacity_seed),
                     std::memory_order_relaxed);
}

void WorkStealingScheduler::sweep_stale_locked(Deque& d) {
  const std::size_t removed = std::erase_if(d.pool, [](const Entry& e) {
    return e.lazy != nullptr &&
           handle_resolved(e.lazy->state.load(std::memory_order_relaxed));
  });
  if (removed > 0) {
    std::make_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
    stale_discards_.fetch_add(removed, std::memory_order_relaxed);
  }
}

// Move the arbitrary back half of a locked deque's heap array out —
// O(half) moves, no sorting; the minimum stays at home in the heap
// front. Caller re-publishes.
std::vector<WorkStealingScheduler::Entry> WorkStealingScheduler::shed_half_locked(
    Deque& d) {
  std::vector<Entry> out;
  const std::size_t k = d.pool.size() / 2;
  if (k == 0) return out;
  out.assign(std::make_move_iterator(d.pool.end() -
                                     static_cast<std::ptrdiff_t>(k)),
             std::make_move_iterator(d.pool.end()));
  d.pool.erase(d.pool.end() - static_cast<std::ptrdiff_t>(k), d.pool.end());
  std::make_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
  return out;
}

WorkStealingScheduler::Entry WorkStealingScheduler::pop_best_locked(Deque& d) {
  std::pop_heap(d.pool.begin(), d.pool.end(), EntryCmp{});
  Entry e = std::move(d.pool.back());
  d.pool.pop_back();
  return e;
}

void WorkStealingScheduler::park_entries(unsigned worker,
                                         std::vector<Entry> es) {
  if (es.empty()) return;
  Deque& dst = *deques_[worker];
  std::lock_guard lock(dst.mu);
  locks_.fetch_add(1, std::memory_order_relaxed);
  for (auto& e : es) dst.pool.push_back(std::move(e));
  std::make_heap(dst.pool.begin(), dst.pool.end(), EntryCmp{});
  publish(dst);
}

void WorkStealingScheduler::push_root(search::DetachedNode n) {
  inflight_.fetch_add(1, std::memory_order_relaxed);
  std::vector<search::DetachedNode> one;
  one.push_back(std::move(n));
  push_batch(0, std::move(one));
}

void WorkStealingScheduler::enqueue_spill(unsigned self,
                                          std::vector<Entry> es) {
  Deque& own = *deques_[self];
  pushes_.fetch_add(es.size(), std::memory_order_relaxed);

  // Overflow policy: the capacity is a *sharing trigger*, not a hard
  // bound. Only shed work when the deque is over capacity AND some other
  // worker is starving (published size under half the capacity) — the
  // receiver is picked lock-free before any mutex is touched. This keeps
  // a lone busy worker from pointlessly shuffling its own queue.
  const std::size_t capacity = own.cap.load(std::memory_order_relaxed);
  unsigned starving = self;
  if (deques_.size() > 1 &&
      own.pub_size.load(std::memory_order_relaxed) + es.size() > capacity) {
    // Threshold at least 1 so empty peers qualify even at capacity 1.
    std::uint32_t best_size =
        static_cast<std::uint32_t>(std::max<std::size_t>(1, capacity / 2));
    for (unsigned v = 0; v < deques_.size(); ++v) {
      if (v == self) continue;
      const std::uint32_t sz =
          deques_[v]->pub_size.load(std::memory_order_relaxed);
      if (sz < best_size) {
        best_size = sz;
        starving = v;
      }
    }
  }

  std::vector<Entry> overflow;
  {
    std::lock_guard lock(own.mu);
    locks_.fetch_add(1, std::memory_order_relaxed);
    // No reserve(): exact-fit reserve would reallocate (O(size) entry
    // moves) on every batch; geometric push_back growth is amortized O(1).
    for (auto& e : es) {
      own.pool.push_back(std::move(e));
      std::push_heap(own.pool.begin(), own.pool.end(), EntryCmp{});
    }
    // Handle entries go stale whenever their owner reclaims in place;
    // sweep before shedding so peers never receive garbage.
    if (own.pool.size() > capacity) sweep_stale_locked(own);
    if (starving != self && own.pool.size() > capacity)
      overflow = shed_half_locked(own);
    adapt(own);
    publish(own);
  }
  if (!overflow.empty()) {
    park_entries(starving, std::move(overflow));
    offloads_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WorkStealingScheduler::push_batch(unsigned worker,
                                       std::vector<search::DetachedNode> ns) {
  if (ns.empty()) return;
  obs::trace(tuning_.trace,
             static_cast<std::uint16_t>(worker % deques_.size()),
             EventKind::kSpillBatch, static_cast<std::uint32_t>(ns.size()));
  std::vector<Entry> es;
  es.reserve(ns.size());
  for (auto& n : ns) {
    const double b = n.bound;
    es.push_back(Entry{b, seq_.fetch_add(1, std::memory_order_relaxed),
                       std::move(n), nullptr});
  }
  enqueue_spill(worker % static_cast<unsigned>(deques_.size()),
                std::move(es));
}

void WorkStealingScheduler::push_handles(
    unsigned worker, std::vector<std::shared_ptr<SpillHandle>> hs) {
  if (hs.empty()) return;
  handles_published_.fetch_add(hs.size(), std::memory_order_relaxed);
  obs::trace(tuning_.trace,
             static_cast<std::uint16_t>(worker % deques_.size()),
             EventKind::kSpillPublish, static_cast<std::uint32_t>(hs.size()));
  std::vector<Entry> es;
  es.reserve(hs.size());
  for (auto& h : hs) {
    const double b = h->bound;
    es.push_back(Entry{b, seq_.fetch_add(1, std::memory_order_relaxed),
                       search::Node{}, std::move(h)});
  }
  enqueue_spill(worker % static_cast<unsigned>(deques_.size()),
                std::move(es));
}

std::size_t WorkStealingScheduler::local_capacity_hint(
    unsigned worker, std::size_t fallback) const {
  if (!tuning_.adaptive) return fallback;
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  const std::size_t hint =
      deques_[self]->local_hint.load(std::memory_order_relaxed);
  // The EWMA is only re-sampled while spilling, so a grown hint could
  // latch: a worker whose pending pool sits under it would never publish
  // (and so never adapt) again, hoarding the tail of the search while
  // everyone else starves. Collapse to the configured seed whenever
  // someone is actually idle — that re-opens publishing, which runs
  // adapt(), which lets the EWMA see the pressure.
  if (idle_.load(std::memory_order_relaxed) > 0) return std::min(hint, fallback);
  return hint;
}

std::size_t WorkStealingScheduler::deque_capacity(unsigned worker) const {
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  return deques_[self]->cap.load(std::memory_order_relaxed);
}

void WorkStealingScheduler::record_steal(unsigned thief, std::uint64_t n) {
  steals_.fetch_add(n, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
             EventKind::kSteal, static_cast<std::uint32_t>(n));
}

unsigned WorkStealingScheduler::pick_victim(unsigned self, double require_below,
                                            bool include_self) const {
  // Minimum-seeking scan (§6's network read): the strict minimum of the
  // published minima, the scanner's own deque first so ties stay home.
  const unsigned n = static_cast<unsigned>(deques_.size());
  unsigned best_v = n;
  double best_b = require_below;
  if (include_self) {
    const double own = deques_[self]->pub_min.load(std::memory_order_acquire);
    if (own < best_b) {
      best_b = own;
      best_v = self;
    }
  }
  for (unsigned v = 0; v < n; ++v) {
    if (v == self) continue;
    const double m = deques_[v]->pub_min.load(std::memory_order_acquire);
    if (m < best_b) {
      best_b = m;
      best_v = v;
    }
  }
  return best_v;
}

std::optional<search::Node> WorkStealingScheduler::await_claim(
    unsigned thief, std::shared_ptr<SpillHandle> h, std::uint64_t entry_seq,
    ClaimWait wait) {
  // Liveness: the owner services claims at its next expansion boundary
  // (it cannot be blocked in acquire() while this handle lives — a worker
  // only goes idle with an empty stack, and an empty stack has no live
  // handles). Under stop, the owner's shutdown path marks the handle
  // kDead instead.
  constexpr unsigned kBoundedSpins = 256;
  const std::int64_t t0 = now_us();
  std::uint64_t waited = 0;
  unsigned spins = 0;
  const auto flush_spins = [&] {
    if (waited > 0)
      claim_wait_spins_.fetch_add(waited, std::memory_order_relaxed);
  };
  for (;;) {
    const std::uint32_t s = h->state.load(std::memory_order_acquire);
    if (s == SpillHandle::kReady) {
      search::Node n = std::move(h->node);
      h->state.store(SpillHandle::kTaken, std::memory_order_release);
      handle_grants_.fetch_add(1, std::memory_order_relaxed);
      pops_.fetch_add(1, std::memory_order_relaxed);
      obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
                 EventKind::kHandleGrant, static_cast<std::uint32_t>(h->owner));
      if (h->owner != thief) record_steal(thief, 1);
      claim_wait_us_.fetch_add(
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, now_us() - t0)),
          std::memory_order_relaxed);
      flush_spins();
      return n;
    }
    if (s == SpillHandle::kDead) {
      obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
                 EventKind::kHandleDead, static_cast<std::uint32_t>(h->owner));
      flush_spins();
      return std::nullopt;  // chain was dropped
    }
    if (stop_.load(std::memory_order_relaxed)) {
      flush_spins();
      return std::nullopt;  // abandon the claim; the owner kills it on exit
    }
    if (wait == ClaimWait::Bounded && spins >= kBoundedSpins) {
      std::uint32_t expect = SpillHandle::kClaimed;
      if (h->state.compare_exchange_strong(expect, SpillHandle::kAvailable,
                                           std::memory_order_acq_rel)) {
        // Un-claim: re-park the entry on our own deque so the chain is
        // not lost to the network, and go back to local work.
        std::vector<Entry> one;
        one.push_back(Entry{h->bound, entry_seq, search::Node{}, std::move(h)});
        park_entries(thief, std::move(one));
        flush_spins();
        return std::nullopt;
      }
      // Owner advanced to kFulfilling/kReady: the node is moments away —
      // yield instead of hard-spinning on the CAS while it lands.
      ++waited;
      std::this_thread::yield();
      continue;
    }
    ++waited;
    if (spins < 32) {
      ++spins;
      std::this_thread::yield();
    } else {
      ++spins;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

std::optional<search::Node> WorkStealingScheduler::steal_from(
    unsigned thief, unsigned victim, double require_below, bool bulk,
    ClaimWait wait) {
  Deque& src = *deques_[victim];
  std::vector<Entry> loot;
  Entry taken;
  bool have_entry = false;
  {
    std::lock_guard lock(src.mu);
    locks_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      if (src.pool.empty() || src.pool.front().bound >= require_below)
        break;  // empty or the published minimum was stale
      Entry e = pop_best_locked(src);
      if (e.lazy != nullptr) {
        const std::uint32_t s = e.lazy->state.load(std::memory_order_acquire);
        if (handle_resolved(s)) {
          stale_discards_.fetch_add(1, std::memory_order_relaxed);
          continue;  // garbage entry; keep looking
        }
        if (e.lazy->owner == thief) {
          // Our own live handle surfaced through the network (offload or
          // steal-half moved it here): resolve it in our favour — the
          // choice is still on our stack and cheaper to take there. The
          // CAS can only lose to our own runner having resolved it
          // already; either way the entry is spent.
          std::uint32_t expect = SpillHandle::kAvailable;
          e.lazy->state.compare_exchange_strong(expect,
                                                SpillHandle::kOwnerTaken,
                                                std::memory_order_acq_rel);
          stale_discards_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      taken = std::move(e);
      have_entry = true;
      break;
    }
    if (have_entry && bulk && victim != thief && !src.pool.empty()) {
      // Steal-half (idle acquisition only): take half of the victim's
      // remaining deque along, so one lock acquisition funds many future
      // local activations on the thief. D-threshold migrations take just
      // the minimum chain, like §6's network grant.
      loot = shed_half_locked(src);
    }
    publish(src);
  }
  if (!loot.empty()) {
    const std::size_t n = loot.size();
    if (victim != thief) {
      record_steal(thief, n);
      // Pressure rises for whoever the moved work belongs to: the handle
      // owner for lazy entries (wherever the entry happened to live), the
      // looted deque for materialized ones (their owner is unrecorded).
      for (const Entry& e : loot) {
        Deque& owner_d =
            e.lazy != nullptr ? *deques_[e.lazy->owner % deques_.size()] : src;
        owner_d.thefts_since_push.fetch_add(1, std::memory_order_relaxed);
      }
    }
    park_entries(thief, std::move(loot));
  }
  if (!have_entry) return std::nullopt;

  if (taken.lazy == nullptr) {
    pops_.fetch_add(1, std::memory_order_relaxed);
    // A worker reclaiming its own spilled chains is not a steal; only
    // cross-worker transfers count toward the bench's steal metric (and
    // toward the victim's steal-pressure EWMA).
    if (victim != thief) {
      record_steal(thief, 1);
      src.thefts_since_push.fetch_add(1, std::memory_order_relaxed);
    }
    return std::move(taken.node);
  }

  // Copy-on-steal: win the claim CAS outside any deque lock, then wait
  // for the owner to materialize the checkpointed state into the handle.
  // Losing the CAS means the owner resolved the choice first — the entry
  // was stale after all.
  std::shared_ptr<SpillHandle> h = std::move(taken.lazy);
  if (!h->try_claim()) {
    // Lost to the owner: no work moved, no pressure registered.
    stale_discards_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // Record the won claim against the *owner's* deque: its steal-pressure
  // EWMA is what should rise, wherever the entry happened to live.
  deques_[h->owner % deques_.size()]->thefts_since_push.fetch_add(
      1, std::memory_order_relaxed);
  handle_claims_.fetch_add(1, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(thief),
             EventKind::kHandleClaim, static_cast<std::uint32_t>(h->owner));
  return await_claim(thief, std::move(h), taken.seq, wait);
}

std::optional<search::Node> WorkStealingScheduler::try_acquire_better(
    unsigned worker, double local_min, double d) {
  if (stop_.load(std::memory_order_relaxed)) return std::nullopt;
  // Lock-free minimum-seeking scan (§6's network read): no mutex touched
  // unless a *remote* deque advertises a strictly better chain. The
  // worker's own deque is part of its local pool — §6 compares the
  // processor's local minimum against the network, so chains a worker
  // spilled itself never trigger the abandon-and-migrate penalty (they
  // are reclaimed on the cheap acquire path once the pending pool
  // drains, or stolen by an idle processor meanwhile).
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  const double own = deques_[self]->pub_min.load(std::memory_order_acquire);
  const double threshold = std::min(local_min, own) - d;
  const unsigned victim = pick_victim(self, threshold, /*include_self=*/false);
  if (victim == deques_.size()) return std::nullopt;
  steal_attempts_.fetch_add(1, std::memory_order_relaxed);
  obs::trace(tuning_.trace, static_cast<std::uint16_t>(self),
             EventKind::kStealAttempt, victim);
  return steal_from(worker, victim, threshold, /*bulk=*/false,
                    ClaimWait::Bounded);
}

std::optional<search::Node> WorkStealingScheduler::acquire(unsigned worker) {
  const unsigned self = worker % static_cast<unsigned>(deques_.size());
  unsigned spins = 0;
  // Registered as idle (the starving() signal, also read by adapt() and
  // local_capacity_hint()) only once a full victim scan came up empty;
  // cleared on every exit path.
  struct IdleGuard {
    std::atomic<int>& count;
    obs::TraceSink* trace;
    std::uint16_t lane;
    bool on = false;
    void mark() {
      if (!on) {
        count.fetch_add(1, std::memory_order_relaxed);
        obs::trace(trace, lane, EventKind::kStarveOn);
        on = true;
      }
    }
    ~IdleGuard() {
      if (on) {
        count.fetch_sub(1, std::memory_order_relaxed);
        obs::trace(trace, lane, EventKind::kStarveOff);
      }
    }
  } idle_guard{idle_, tuning_.trace, static_cast<std::uint16_t>(self)};
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return std::nullopt;

    // Scan every published minimum for the best victim — §6's freed
    // processor acquires the globally minimum-bound chain. Ties favour the
    // own deque (no cross-worker traffic).
    const unsigned victim = pick_victim(self, kInf, /*include_self=*/true);
    if (victim != deques_.size()) {
      if (auto n = steal_from(self, victim, kInf, /*bulk=*/true,
                              ClaimWait::Blocking)) {
        grants_.fetch_add(1, std::memory_order_relaxed);
        return n;
      }
      // Lost the race / stale entries / dead claim: rescan immediately.
      continue;
    }
    // No queued work anywhere. The outstanding-work counter is the
    // distributed termination detector: zero means every chain has been
    // consumed (none queued, none being expanded), so exit.
    idle_guard.mark();
    if (inflight_.load(std::memory_order_acquire) == 0) return std::nullopt;

    // Work exists but lives inside other workers' runners; back off
    // politely (spin briefly, then sleep with exponential backoff capped at
    // 500µs) until it spills or dies. Sleeping parks the thread off the
    // runqueue, which matters when workers outnumber cores.
    if (spins < 16) {
      ++spins;
      std::this_thread::yield();
    } else {
      const unsigned exp = std::min(spins - 16u, 5u);
      ++spins;
      std::this_thread::sleep_for(std::chrono::microseconds(20u << exp));
    }
  }
}

void WorkStealingScheduler::on_expanded(std::size_t children) {
  expansions_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(static_cast<std::int64_t>(children) - 1,
                      std::memory_order_acq_rel);
}

void WorkStealingScheduler::stop() {
  stop_.store(true, std::memory_order_release);
}

bool WorkStealingScheduler::stopped() const {
  return stop_.load(std::memory_order_acquire);
}

std::optional<double> WorkStealingScheduler::min_bound() const {
  double best = kInf;
  for (const auto& d : deques_)
    best = std::min(best, d->pub_min.load(std::memory_order_acquire));
  if (best == kInf) return std::nullopt;
  return best;
}

SchedulerStats WorkStealingScheduler::stats() const {
  SchedulerStats s;
  s.pushes = pushes_.load(std::memory_order_relaxed);
  s.pops = pops_.load(std::memory_order_relaxed);
  s.grants = grants_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.steal_attempts = steal_attempts_.load(std::memory_order_relaxed);
  s.offloads = offloads_.load(std::memory_order_relaxed);
  s.lock_acquisitions = locks_.load(std::memory_order_relaxed);
  s.handles_published = handles_published_.load(std::memory_order_relaxed);
  s.handle_claims = handle_claims_.load(std::memory_order_relaxed);
  s.handle_grants = handle_grants_.load(std::memory_order_relaxed);
  s.stale_discards = stale_discards_.load(std::memory_order_relaxed);
  s.claim_wait_spins = claim_wait_spins_.load(std::memory_order_relaxed);
  s.claim_wait_us = claim_wait_us_.load(std::memory_order_relaxed);
  s.expansions = expansions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace blog::parallel
