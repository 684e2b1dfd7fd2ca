#include "blog/term/unify.hpp"

#include <algorithm>

namespace blog::term {

void Trail::undo_to(std::size_t mark, Store& store) {
  while (entries_.size() > mark) {
    store.unbind(entries_.back());
    entries_.pop_back();
  }
}

namespace {

/// The unifier's work stack of pending pairs: a fixed inline buffer on the
/// caller's stack that spills to the heap only for terms with more
/// outstanding pairs than it holds, so a typical unification allocates
/// nothing. Entries beyond the buffer live in `spill_`, which is non-empty
/// only while the buffer is full, so popping it first keeps LIFO order.
class WorkStack {
public:
  struct Pair {
    TermRef a;
    TermRef b;
  };
  [[nodiscard]] bool empty() const { return n_ == 0; }
  void push(TermRef a, TermRef b) {
    if (n_ < kInline) {
      inline_[n_++] = Pair{a, b};
    } else {
      spill_.push_back(Pair{a, b});
    }
  }
  Pair pop() {
    if (!spill_.empty()) {
      const Pair p = spill_.back();
      spill_.pop_back();
      return p;
    }
    return inline_[--n_];
  }

private:
  static constexpr std::size_t kInline = 64;
  // Left uninitialized so a call pays nothing for unused slots: only
  // [0, n_) is read, and push() writes each slot before it counts.
  Pair inline_[kInline];
  std::size_t n_ = 0;
  std::vector<Pair> spill_;
};

bool unify_impl(Store& s, TermRef a, TermRef b, Trail& trail,
                const UnifyOptions& opts, UnifyStats* stats) {
  WorkStack todo;
  todo.push(a, b);
  while (!todo.empty()) {
    auto [x, y] = todo.pop();
    x = s.deref(x);
    y = s.deref(y);
    if (stats) ++stats->cells_visited;
    if (x == y) continue;
    const Tag tx = s.tag(x), ty = s.tag(y);
    if (tx == Tag::Var) {
      if (opts.occurs_check && occurs(s, x, y)) return false;
      s.bind(x, y);
      trail.push(x);
      if (stats) ++stats->bindings;
      continue;
    }
    if (ty == Tag::Var) {
      if (opts.occurs_check && occurs(s, y, x)) return false;
      s.bind(y, x);
      trail.push(y);
      if (stats) ++stats->bindings;
      continue;
    }
    if (tx != ty) return false;
    switch (tx) {
      case Tag::Atom:
        if (s.atom_name(x) != s.atom_name(y)) return false;
        break;
      case Tag::Int:
        if (s.int_value(x) != s.int_value(y)) return false;
        break;
      case Tag::Struct: {
        if (s.functor(x) != s.functor(y) || s.arity(x) != s.arity(y)) return false;
        const auto ax = s.args(x), ay = s.args(y);
        for (std::size_t i = 0; i < ax.size(); ++i) todo.push(ax[i], ay[i]);
        break;
      }
      case Tag::Var:
        break;  // handled above
    }
  }
  return true;
}

}  // namespace

bool unify(Store& store, TermRef a, TermRef b, Trail& trail,
           const UnifyOptions& opts, UnifyStats* stats) {
  const std::size_t mark = trail.mark();
  if (unify_impl(store, a, b, trail, opts, stats)) return true;
  trail.undo_to(mark, store);
  return false;
}

bool occurs(const Store& store, TermRef var, TermRef t) {
  t = store.deref(t);
  if (t == var) return true;
  if (store.is_struct(t)) {
    for (const TermRef k : store.args(t))
      if (occurs(store, var, k)) return true;
  }
  return false;
}

bool is_ground(const Store& store, TermRef t) {
  t = store.deref(t);
  if (store.is_var(t)) return false;
  if (store.is_struct(t)) {
    for (const TermRef k : store.args(t))
      if (!is_ground(store, k)) return false;
  }
  return true;
}

void collect_vars(const Store& store, TermRef t, std::vector<TermRef>& out) {
  t = store.deref(t);
  if (store.is_var(t)) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    return;
  }
  if (store.is_struct(t)) {
    for (const TermRef k : store.args(t)) collect_vars(store, k, out);
  }
}

}  // namespace blog::term
