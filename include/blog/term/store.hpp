// Term representation.
//
// Terms live in a `Store` arena and are referred to by 32-bit indices
// (`TermRef`). A worker runs a whole derivation destructively inside one
// Store, undoing bindings through the trail and truncating the arena back
// to a `Watermark` when it backtracks past a choice point. Independent
// deep copies (`compact_into`) are made only when a subtree migrates to
// another processor or a solution is recorded — the copy-on-migration
// style of OR-parallel systems (the paper notes that "most structure
// sharing schemes are difficult to implement in parallel", §6, and its
// machine copies state between processors' local memories).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "blog/support/symbol.hpp"

namespace blog::term {

using TermRef = std::uint32_t;
inline constexpr TermRef kNullTerm = 0xffffffffu;

enum class Tag : std::uint8_t {
  Var,     // logic variable; `a` = binding (self if unbound), `b` = name symbol
  Atom,    // `a` = symbol
  Int,     // `a`/`b` = low/high 32 bits of a signed 64-bit value
  Struct,  // `a` = functor symbol, `b` = arg offset, `c` = arity
};

struct Cell {
  Tag tag = Tag::Var;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

/// Variable renaming of `Store::import` and compaction: source variable
/// (a `TermRef` of the store being copied from) → its copy. A dense table
/// indexed by source `TermRef` plus the list of entries set, so a caller
/// that keeps one map reuses its memory across imports: `clear()` costs
/// O(entries set), and once the table covers the largest source store no
/// import allocates. Not thread-safe; one per worker or call site.
class VarMap {
public:
  /// The copy of source variable `v`, or kNullTerm when unmapped.
  [[nodiscard]] TermRef find(TermRef v) const {
    return v < to_.size() ? to_[v] : kNullTerm;
  }
  /// Map `v` to `to` (`to` != kNullTerm).
  void set(TermRef v, TermRef to) {
    if (v >= to_.size()) cover(v + 1);
    if (to_[v] == kNullTerm) set_.push_back(v);
    to_[v] = to;
  }
  /// Grow the table to index every `TermRef` below `cells` (one
  /// allocation for a whole import instead of one per new variable).
  void cover(std::size_t cells) {
    if (cells > to_.size()) to_.resize(cells, kNullTerm);
  }
  /// Forget every entry, keeping the memory.
  void clear() {
    for (const TermRef v : set_) to_[v] = kNullTerm;
    set_.clear();
  }
  /// Number of entries set since the last clear().
  [[nodiscard]] std::size_t size() const { return set_.size(); }

private:
  std::vector<TermRef> to_;   // indexed by source TermRef; kNullTerm = unset
  std::vector<TermRef> set_;  // the source refs set, for clear()
};

/// Arena of term cells plus argument pool. Movable, cheap to create.
class Store {
public:
  Store() = default;

  // --- construction ------------------------------------------------------
  TermRef make_var(Symbol name = Symbol{});
  TermRef make_atom(Symbol name);
  TermRef make_atom(std::string_view name) { return make_atom(intern(name)); }
  TermRef make_int(std::int64_t v);
  TermRef make_struct(Symbol functor, std::span<const TermRef> args);
  TermRef make_list(std::span<const TermRef> items, TermRef tail = kNullTerm);

  // --- inspection (callers should deref first) ---------------------------
  [[nodiscard]] const Cell& cell(TermRef t) const { return cells_[t]; }
  [[nodiscard]] Tag tag(TermRef t) const { return cells_[t].tag; }
  [[nodiscard]] bool is_var(TermRef t) const { return cells_[t].tag == Tag::Var; }
  [[nodiscard]] bool is_atom(TermRef t) const { return cells_[t].tag == Tag::Atom; }
  [[nodiscard]] bool is_int(TermRef t) const { return cells_[t].tag == Tag::Int; }
  [[nodiscard]] bool is_struct(TermRef t) const { return cells_[t].tag == Tag::Struct; }

  [[nodiscard]] Symbol atom_name(TermRef t) const { return Symbol{cells_[t].a}; }
  [[nodiscard]] Symbol functor(TermRef t) const { return Symbol{cells_[t].a}; }
  [[nodiscard]] std::uint32_t arity(TermRef t) const {
    return cells_[t].tag == Tag::Struct ? cells_[t].c : 0;
  }
  [[nodiscard]] TermRef arg(TermRef t, std::uint32_t i) const {
    return args_[cells_[t].b + i];
  }
  [[nodiscard]] std::span<const TermRef> args(TermRef t) const {
    return {args_.data() + cells_[t].b, cells_[t].c};
  }
  [[nodiscard]] std::int64_t int_value(TermRef t) const {
    return static_cast<std::int64_t>(
        (static_cast<std::uint64_t>(cells_[t].b) << 32) | cells_[t].a);
  }
  [[nodiscard]] Symbol var_name(TermRef t) const { return Symbol{cells_[t].b}; }

  /// Follow variable bindings to the representative term.
  [[nodiscard]] TermRef deref(TermRef t) const;

  /// Bind an *unbound* variable cell to `to`. Does not trail; see unify.hpp.
  void bind(TermRef var, TermRef to) { cells_[var].a = to; }
  /// Reset a variable cell to unbound (trail undo).
  void unbind(TermRef var) { cells_[var].a = var; }
  [[nodiscard]] bool is_unbound(TermRef t) const {
    return cells_[t].tag == Tag::Var && cells_[t].a == t;
  }

  [[nodiscard]] std::size_t size() const { return cells_.size(); }

  // --- checkpoint / rollback ---------------------------------------------
  /// Arena high-water mark. Cells and argument slots allocated after a
  /// watermark can be discarded wholesale with `truncate` once every
  /// binding made since has been undone through the trail.
  struct Watermark {
    std::uint32_t cells = 0;
    std::uint32_t args = 0;

    friend bool operator==(const Watermark&, const Watermark&) = default;
  };
  [[nodiscard]] Watermark watermark() const {
    return {static_cast<std::uint32_t>(cells_.size()),
            static_cast<std::uint32_t>(args_.size())};
  }
  /// Drop every cell/arg allocated after `m`. The caller must first undo
  /// (via the trail) any binding of a pre-`m` variable made after `m`;
  /// cells above the watermark need no undo, they simply disappear.
  void truncate(const Watermark& m);
  /// Drop everything (fresh arena, capacity retained).
  void clear() {
    cells_.clear();
    args_.clear();
  }

  /// Deep-copy `t` (in `src`) into this store, dereferencing bindings along
  /// the way. Unbound source variables map to fresh variables here;
  /// `var_map` makes the mapping stable across multiple copies (clause
  /// renaming, answer extraction) until the caller clears it. Cells are
  /// allocated in post-order (arguments before their structure), which is
  /// what numbers anonymous variables' `_G<n>` names; nothing but this
  /// store's cells and argument slots is allocated.
  TermRef import(const Store& src, TermRef t, VarMap& var_map);

  /// Export exactly the cells reachable from `roots` into `dst` (one term
  /// per root appended to `out`), dereferencing bindings along the way and
  /// sharing variables across roots through `map` (scratch: cleared on
  /// entry). This is the copy-on-migration primitive: the result is an
  /// independent, compacted state no matter how large this (trail-managed)
  /// arena has grown.
  void compact_into(Store& dst, std::span<const TermRef> roots,
                    std::vector<TermRef>& out, VarMap& map) const;

  /// `compact_into` as of an earlier checkpoint: variables in `undone`
  /// (the trail segment recorded since that checkpoint) are treated as
  /// unbound, reconstructing the state a rollback would restore — without
  /// touching this store. Cells allocated after the checkpoint are
  /// unreachable under that view (pre-checkpoint cells can only point at
  /// them through bindings the view undoes), so the result is exactly the
  /// checkpointed state. This is what lets a worker materialize a
  /// copy-on-steal spill handle for a thief while its own derivation keeps
  /// running above the handle's checkpoint. The undone variables are
  /// marked in `map` itself (scratch: cleared on entry).
  void compact_into_as_of(Store& dst, std::span<const TermRef> roots,
                          std::vector<TermRef>& out,
                          std::span<const TermRef> undone, VarMap& map) const;

  /// Structural equality of two (possibly cross-store) terms after deref.
  /// Unbound variables are equal only when `lhs`/`rhs` resolve to the same
  /// cell of the same store.
  static bool equal(const Store& sa, TermRef a, const Store& sb, TermRef b);

  /// Standard order comparison (Var < Int < Atom < Struct) after deref.
  static int compare(const Store& sa, TermRef a, const Store& sb, TermRef b);

  /// Number of cells reachable from `t` (after deref); used by the machine
  /// simulator as the copy-cost measure.
  [[nodiscard]] std::size_t reachable_cells(TermRef t) const;

private:
  /// The one copy traversal behind import and both compactions: the live
  /// view (kAsOf = false) or the checkpoint as-of view, where `map`'s
  /// entries for bound variables mark bindings to treat as undone.
  template <bool kAsOf>
  TermRef copy_from(const Store& src, TermRef t, VarMap& map);

  std::vector<Cell> cells_;
  std::vector<TermRef> args_;
};

/// Convenience: the well-known atoms.
Symbol nil_symbol();   // []
Symbol cons_symbol();  // '.'
Symbol comma_symbol();
Symbol true_symbol();

}  // namespace blog::term
