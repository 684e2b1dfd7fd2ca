// Arc-weight storage and session semantics (§5 of the paper).
//
// Every pointer in the database carries a weight:
//   - "unknown"  : initialized to N+1 (just above any solved bound N);
//   - "known"    : set by a successful search;
//   - "infinity" : coded as A*N (A = longest chain), set by a failed search.
//
// During a *session*, updates are strong and go to each pointer's session value.
// `end_session()` merges them *conservatively* into the global database:
// infinities never override non-infinite global weights, and other weights
// move toward the session value by the blend factor, averaging adaptation
// across sessions.
//
// As in the paper's Figure 4, each weight lives with its pointer: every
// followed pointer owns one `WeightCell` that never moves, holding its
// session and global weight as atomics. Searches find a cell without a
// lock or a hash and then read and update it in place.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "blog/db/program.hpp"

namespace blog::db {

enum class WeightKind : std::uint8_t { Unknown, Known, Infinite };

struct WeightParams {
  double n = 16.0;        // target bound N of every successful chain
  double a = 8.0;         // longest chain length A; infinity is coded A*N
  double blend = 0.5;     // session→global blend factor at end_session()

  [[nodiscard]] double unknown() const { return n + 1.0; }
  [[nodiscard]] double infinity() const { return a * n; }
};

/// Value of a cell half that was never set (or was cleared).
inline constexpr double kAbsentWeight = std::numeric_limits<double>::quiet_NaN();
[[nodiscard]] inline bool weight_absent(double w) { return w != w; }

/// The weight of one pointer: its session value (this session's strong
/// update) and its global value (the merged database weight), each
/// `kAbsentWeight` until set. Reads and writes are relaxed atomics, except
/// that `end_session()` clears `session` with release and readers load it
/// with acquire, so a reader that sees the session value gone also sees
/// the global value it was merged into.
struct WeightCell {
  std::atomic<double> session{kAbsentWeight};
  std::atomic<double> global{kAbsentWeight};
};
static_assert(std::atomic<double>::is_always_lock_free);

/// Grow-only table from a 32-bit index to a `T` that never moves once
/// made: a radix tree of 16-way pages whose height grows with the largest
/// index touched. `find` takes no lock and computes no hash — one load per
/// level. `touch` publishes each missing page (or a taller root) with one
/// CAS. Pages are freed only with the table, so a `T*` stays valid for the
/// table's lifetime.
template <class T>
class GrowTable {
public:
  GrowTable() = default;
  GrowTable(const GrowTable&) = delete;
  GrowTable& operator=(const GrowTable&) = delete;
  ~GrowTable() {
    if (const std::uintptr_t r = root_.load(std::memory_order_acquire))
      free_page(page(r), height(r));
  }

  /// Item `i`, or nullptr when its page was never made.
  [[nodiscard]] T* find(std::uint32_t i) const {
    const std::uintptr_t r = root_.load(std::memory_order_acquire);
    if (r == 0 || !fits(i, height(r))) return nullptr;
    void* p = page(r);
    for (unsigned h = height(r); h > 0; --h) {
      p = static_cast<Inner*>(p)->child[slot(i, h)].load(std::memory_order_acquire);
      if (p == nullptr) return nullptr;
    }
    return &static_cast<Leaf*>(p)->item[i & kLeafMask];
  }

  /// Item `i`, making its page (and a taller root) on first touch.
  T& touch(std::uint32_t i) {
    std::uintptr_t r = root_.load(std::memory_order_acquire);
    while (r == 0 || !fits(i, height(r))) {
      // Either the first page (as tall as `i` needs), or a taller root
      // whose first child is the current tree.
      unsigned h = 0;
      void* made;
      if (r == 0) {
        while (!fits(i, h)) ++h;
        made = new_page(h);
      } else {
        h = height(r) + 1;
        auto* up = new Inner;
        up->child[0].store(page(r), std::memory_order_relaxed);
        made = up;
      }
      const std::uintptr_t want = reinterpret_cast<std::uintptr_t>(made) | h;
      if (root_.compare_exchange_strong(r, want, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        r = want;
      } else {
        drop_page(made, h);  // a taller root never owns the old one
      }
    }
    void* p = page(r);
    for (unsigned h = height(r); h > 0; --h) {
      std::atomic<void*>& link = static_cast<Inner*>(p)->child[slot(i, h)];
      void* next = link.load(std::memory_order_acquire);
      if (next == nullptr) {
        void* made = new_page(h - 1);
        if (link.compare_exchange_strong(next, made, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
          next = made;
        } else {
          drop_page(made, h - 1);
        }
      }
      p = next;
    }
    return static_cast<Leaf*>(p)->item[i & kLeafMask];
  }

  /// Call `f(index, item)` for every item on a page made so far, in index
  /// order. Pages published while the walk runs may or may not be seen.
  template <class F>
  void for_each(F&& f) const {
    if (const std::uintptr_t r = root_.load(std::memory_order_acquire))
      walk(page(r), height(r), 0, f);
  }

private:
  static constexpr unsigned kBits = 4;  // 16 entries per page, every level
  static constexpr std::uint32_t kFan = 1u << kBits;
  static constexpr std::uint32_t kLeafMask = kFan - 1;
  static constexpr std::uintptr_t kHeightMask = 7;  // height <= 7 covers 32 bits

  struct alignas(8) Leaf {
    T item[kFan];
  };
  struct alignas(8) Inner {
    std::atomic<void*> child[kFan] = {};
  };

  static unsigned height(std::uintptr_t r) { return r & kHeightMask; }
  static void* page(std::uintptr_t r) {
    return reinterpret_cast<void*>(r & ~kHeightMask);
  }
  static bool fits(std::uint32_t i, unsigned h) {
    return (std::uint64_t{i} >> (kBits * (h + 1))) == 0;
  }
  static std::uint32_t slot(std::uint32_t i, unsigned h) {
    return (i >> (kBits * h)) & kLeafMask;
  }
  static void* new_page(unsigned h) {
    if (h == 0) return new Leaf;
    return new Inner;
  }
  /// Delete one page of height `h`, not the pages below it.
  static void drop_page(void* p, unsigned h) {
    if (h == 0) {
      delete static_cast<Leaf*>(p);
    } else {
      delete static_cast<Inner*>(p);
    }
  }
  static void free_page(void* p, unsigned h) {
    if (h > 0)
      for (auto& c : static_cast<Inner*>(p)->child)
        if (void* q = c.load(std::memory_order_acquire)) free_page(q, h - 1);
    drop_page(p, h);
  }
  template <class F>
  static void walk(void* p, unsigned h, std::uint32_t base, F& f) {
    if (h == 0) {
      for (std::uint32_t j = 0; j < kFan; ++j)
        f(base | j, static_cast<Leaf*>(p)->item[j]);
      return;
    }
    for (std::uint32_t j = 0; j < kFan; ++j)
      if (void* q = static_cast<Inner*>(p)->child[j].load(std::memory_order_acquire))
        walk(q, h - 1, base | (j << (kBits * h)), f);
  }

  std::atomic<std::uintptr_t> root_{0};  // page pointer | tree height
};

/// Thread-safe weight store: one `WeightCell` per followed pointer, in a
/// table keyed by the pointer's ids. (caller, literal, context) selects a
/// row and the callee selects the cell in it.
///
/// Solves never lock: `cell`, the cell-based accessors and the key-based
/// reads are lock-free. The session-boundary calls and the inspection
/// calls (`begin_session`, `end_session`, `snapshot`, `session_size`,
/// `global_size`) share one maintenance lock, so they never interleave with
/// one another; each is atomic per key, not across keys, with respect to
/// concurrent solves.
class WeightStore {
public:
  explicit WeightStore(WeightParams params = {}) : params_(params) {}

  [[nodiscard]] const WeightParams& params() const { return params_; }

  /// The pointer's cell, made on first touch. Logically const: a new cell
  /// reads "unknown", as an absent pointer does. The reference stays valid
  /// for the store's lifetime.
  [[nodiscard]] WeightCell& cell(const PointerKey& k) const;

  /// Effective weight: the session value first, then the global value,
  /// then "unknown" (N+1).
  [[nodiscard]] double weight(const WeightCell& c) const {
    const double s = c.session.load(std::memory_order_acquire);
    if (!weight_absent(s)) return s;
    const double g = c.global.load(std::memory_order_relaxed);
    return weight_absent(g) ? params_.unknown() : g;
  }
  [[nodiscard]] double weight(const PointerKey& k) const;

  /// Classify the *effective* weight.
  [[nodiscard]] WeightKind kind(const WeightCell& c) const {
    return classify(weight(c));
  }
  [[nodiscard]] WeightKind kind(const PointerKey& k) const;
  [[nodiscard]] WeightKind classify(double w) const {
    if (w >= params_.infinity()) return WeightKind::Infinite;
    if (w == params_.unknown()) return WeightKind::Unknown;
    return WeightKind::Known;
  }

  /// Strong update within the current session (session value only).
  void set_session(WeightCell& c, double w) {
    c.session.store(w, std::memory_order_relaxed);
  }
  void set_session(const PointerKey& k, double w);

  /// Weight recorded in the global database (no session value), "unknown"
  /// if absent.
  [[nodiscard]] double global_weight(const PointerKey& k) const;

  /// Discard the session values without merging (aborted session).
  void begin_session();

  /// Conservative merge of the session values into the global weights (§5),
  /// clearing each session value it merges:
  ///   - a session infinity never overrides a non-infinite global weight
  ///     (it is kept only when the global entry is absent-with-unknown or
  ///     already infinite);
  ///   - any other session weight moves the global weight toward it:
  ///     g' = (1-blend)*g + blend*s.
  /// The merged global value is stored before the session value is cleared
  /// by one compare-and-exchange against the value merged, so an update
  /// that lands during the merge fails the exchange and stays for the next
  /// merge: none is lost.
  void end_session();

  [[nodiscard]] std::size_t session_size() const;
  [[nodiscard]] std::size_t global_size() const;

  /// Snapshot of the session-effective weights (testing/inspection).
  [[nodiscard]] std::unordered_map<PointerKey, double, PointerKeyHash> snapshot() const;

private:
  using Row = GrowTable<WeightCell>;       // callee → cell
  using ContextRows = GrowTable<Row>;      // context → row
  using LiteralRows = GrowTable<ContextRows>;  // literal → context rows

  /// The cell of `k`, or nullptr when `k` was never touched.
  [[nodiscard]] const WeightCell* find(const PointerKey& k) const;
  /// Call `f(key, cell)` for every cell made so far.
  template <class F>
  void for_each_cell(F&& f) const;

  WeightParams params_;
  mutable GrowTable<LiteralRows> rows_;  // caller → literal rows
  mutable std::mutex maintenance_;       // session boundaries and inspection
};

}  // namespace blog::db
