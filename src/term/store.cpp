#include "blog/term/store.hpp"

#include <cassert>

namespace blog::term {

TermRef Store::make_var(Symbol name) {
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Var, idx, name.id(), 0});
  return idx;
}

TermRef Store::make_atom(Symbol name) {
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Atom, name.id(), 0, 0});
  return idx;
}

TermRef Store::make_int(std::int64_t v) {
  const auto idx = static_cast<TermRef>(cells_.size());
  const auto u = static_cast<std::uint64_t>(v);
  cells_.push_back(Cell{Tag::Int, static_cast<std::uint32_t>(u),
                        static_cast<std::uint32_t>(u >> 32), 0});
  return idx;
}

TermRef Store::make_struct(Symbol functor, std::span<const TermRef> args) {
  assert(!args.empty() && "0-arity structures must be atoms");
  const auto off = static_cast<std::uint32_t>(args_.size());
  args_.insert(args_.end(), args.begin(), args.end());
  const auto idx = static_cast<TermRef>(cells_.size());
  cells_.push_back(Cell{Tag::Struct, functor.id(), off,
                        static_cast<std::uint32_t>(args.size())});
  return idx;
}

TermRef Store::make_list(std::span<const TermRef> items, TermRef tail) {
  TermRef t = tail == kNullTerm ? make_atom(nil_symbol()) : tail;
  for (std::size_t i = items.size(); i-- > 0;) {
    const TermRef pair[2] = {items[i], t};
    t = make_struct(cons_symbol(), pair);
  }
  return t;
}

TermRef Store::deref(TermRef t) const {
  while (cells_[t].tag == Tag::Var && cells_[t].a != t) t = cells_[t].a;
  return t;
}

namespace {

/// Entry of a variable the as-of view treats as unbound (its binding was
/// made after the checkpoint being reconstructed) until it is copied. No
/// store grows to 2^32 - 1 cells, so it never collides with a real copy.
constexpr TermRef kUnboundAsOf = 0xfffffffeu;

}  // namespace

template <bool kAsOf>
TermRef Store::copy_from(const Store& src, TermRef t, VarMap& map) {
  if constexpr (kAsOf) {
    // A variable with an entry in the map is unbound in the view (only
    // unbound variables and undone ones get entries), so the walk stops
    // there even when the live store has bound it since.
    while (src.is_var(t) && !src.is_unbound(t) && map.find(t) == kNullTerm)
      t = src.cell(t).a;
  } else {
    t = src.deref(t);
  }
  const Cell c = src.cell(t);
  switch (c.tag) {
    case Tag::Var: {
      if (const TermRef m = map.find(t); m != kNullTerm && m != kUnboundAsOf)
        return m;
      const TermRef v = make_var(Symbol{c.b});
      map.set(t, v);
      return v;
    }
    case Tag::Atom:
      return make_atom(Symbol{c.a});
    case Tag::Int:
      return make_int(src.int_value(t));
    case Tag::Struct: {
      // Reserve the argument block before copying the arguments and fill it
      // in place; the structure cell itself still comes after its
      // arguments' cells (post-order).
      const auto off = static_cast<std::uint32_t>(args_.size());
      args_.resize(off + c.c);
      for (std::uint32_t i = 0; i < c.c; ++i) {
        const TermRef k = copy_from<kAsOf>(src, src.args_[c.b + i], map);
        args_[off + i] = k;
      }
      const auto idx = static_cast<TermRef>(cells_.size());
      cells_.push_back(Cell{Tag::Struct, c.a, off, c.c});
      return idx;
    }
  }
  return kNullTerm;  // unreachable
}

TermRef Store::import(const Store& src, TermRef t, VarMap& var_map) {
  var_map.cover(src.size());
  return copy_from<false>(src, t, var_map);
}

void Store::truncate(const Watermark& m) {
  assert(m.cells <= cells_.size() && m.args <= args_.size());
  cells_.resize(m.cells);
  args_.resize(m.args);
}

void Store::compact_into(Store& dst, std::span<const TermRef> roots,
                         std::vector<TermRef>& out, VarMap& map) const {
  map.clear();
  map.cover(size());
  out.reserve(out.size() + roots.size());
  for (const TermRef r : roots) out.push_back(dst.copy_from<false>(*this, r, map));
}

void Store::compact_into_as_of(Store& dst, std::span<const TermRef> roots,
                               std::vector<TermRef>& out,
                               std::span<const TermRef> undone,
                               VarMap& map) const {
  if (undone.empty()) return compact_into(dst, roots, out, map);
  map.clear();
  map.cover(size());
  for (const TermRef v : undone) map.set(v, kUnboundAsOf);
  out.reserve(out.size() + roots.size());
  for (const TermRef r : roots) out.push_back(dst.copy_from<true>(*this, r, map));
}

bool Store::equal(const Store& sa, TermRef a, const Store& sb, TermRef b) {
  a = sa.deref(a);
  b = sb.deref(b);
  const Cell& ca = sa.cells_[a];
  const Cell& cb = sb.cells_[b];
  if (ca.tag != cb.tag) return false;
  switch (ca.tag) {
    case Tag::Var:
      return &sa == &sb && a == b;
    case Tag::Atom:
      return ca.a == cb.a;
    case Tag::Int:
      return sa.int_value(a) == sb.int_value(b);
    case Tag::Struct: {
      if (ca.a != cb.a || ca.c != cb.c) return false;
      for (std::uint32_t i = 0; i < ca.c; ++i)
        if (!equal(sa, sa.args_[ca.b + i], sb, sb.args_[cb.b + i])) return false;
      return true;
    }
  }
  return false;
}

int Store::compare(const Store& sa, TermRef a, const Store& sb, TermRef b) {
  a = sa.deref(a);
  b = sb.deref(b);
  const Cell& ca = sa.cells_[a];
  const Cell& cb = sb.cells_[b];
  auto rank = [](Tag t) {
    switch (t) {
      case Tag::Var: return 0;
      case Tag::Int: return 1;
      case Tag::Atom: return 2;
      case Tag::Struct: return 3;
    }
    return 4;
  };
  if (rank(ca.tag) != rank(cb.tag)) return rank(ca.tag) < rank(cb.tag) ? -1 : 1;
  switch (ca.tag) {
    case Tag::Var:
      if (&sa == &sb) return a < b ? (a == b ? 0 : -1) : (a == b ? 0 : 1);
      return &sa < &sb ? -1 : 1;
    case Tag::Int: {
      const auto va = sa.int_value(a), vb = sb.int_value(b);
      return va < vb ? -1 : va > vb ? 1 : 0;
    }
    case Tag::Atom: {
      const auto& na = symbol_name(Symbol{ca.a});
      const auto& nb = symbol_name(Symbol{cb.a});
      return na < nb ? -1 : na > nb ? 1 : 0;
    }
    case Tag::Struct: {
      if (ca.c != cb.c) return ca.c < cb.c ? -1 : 1;
      const auto& na = symbol_name(Symbol{ca.a});
      const auto& nb = symbol_name(Symbol{cb.a});
      if (na != nb) return na < nb ? -1 : 1;
      for (std::uint32_t i = 0; i < ca.c; ++i) {
        const int r = compare(sa, sa.args_[ca.b + i], sb, sb.args_[cb.b + i]);
        if (r != 0) return r;
      }
      return 0;
    }
  }
  return 0;
}

std::size_t Store::reachable_cells(TermRef t) const {
  t = deref(t);
  const Cell& c = cells_[t];
  std::size_t n = 1;
  if (c.tag == Tag::Struct) {
    for (std::uint32_t i = 0; i < c.c; ++i) n += reachable_cells(args_[c.b + i]);
  }
  return n;
}

Symbol nil_symbol() {
  static const Symbol s = intern("[]");
  return s;
}
Symbol cons_symbol() {
  static const Symbol s = intern(".");
  return s;
}
Symbol comma_symbol() {
  static const Symbol s = intern(",");
  return s;
}
Symbol true_symbol() {
  static const Symbol s = intern("true");
  return s;
}

}  // namespace blog::term
