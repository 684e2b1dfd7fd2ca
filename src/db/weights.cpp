#include "blog/db/weights.hpp"

namespace blog::db {

namespace {

// Table indices of the ids that are not plain clause ids: the query
// caller takes caller slot 0, and the no-context and query contexts take
// context slots 0 and 1, so the common rows sit at the small indices.
std::uint32_t caller_slot(ClauseId caller) { return caller + 1; }
std::uint32_t context_slot(ClauseId context) { return context + 2; }

}  // namespace

WeightCell& WeightStore::cell(const PointerKey& k) const {
  return rows_.touch(caller_slot(k.caller))
      .touch(k.literal)
      .touch(context_slot(k.context))
      .touch(k.callee);
}

const WeightCell* WeightStore::find(const PointerKey& k) const {
  const LiteralRows* literals = rows_.find(caller_slot(k.caller));
  if (literals == nullptr) return nullptr;
  const ContextRows* contexts = literals->find(k.literal);
  if (contexts == nullptr) return nullptr;
  const Row* row = contexts->find(context_slot(k.context));
  return row == nullptr ? nullptr : row->find(k.callee);
}

template <class F>
void WeightStore::for_each_cell(F&& f) const {
  rows_.for_each([&](std::uint32_t caller, LiteralRows& literals) {
    literals.for_each([&](std::uint32_t literal, ContextRows& contexts) {
      contexts.for_each([&](std::uint32_t context, Row& row) {
        row.for_each([&](std::uint32_t callee, WeightCell& c) {
          f(PointerKey{caller - 1, literal, callee, context - 2}, c);
        });
      });
    });
  });
}

double WeightStore::weight(const PointerKey& k) const {
  const WeightCell* c = find(k);
  return c == nullptr ? params_.unknown() : weight(*c);
}

WeightKind WeightStore::kind(const PointerKey& k) const { return classify(weight(k)); }

void WeightStore::set_session(const PointerKey& k, double w) { set_session(cell(k), w); }

double WeightStore::global_weight(const PointerKey& k) const {
  const WeightCell* c = find(k);
  const double g =
      c == nullptr ? kAbsentWeight : c->global.load(std::memory_order_relaxed);
  return weight_absent(g) ? params_.unknown() : g;
}

void WeightStore::begin_session() {
  std::lock_guard lock(maintenance_);
  for_each_cell([](const PointerKey&, WeightCell& c) {
    c.session.store(kAbsentWeight, std::memory_order_relaxed);
  });
}

void WeightStore::end_session() {
  std::lock_guard lock(maintenance_);
  for_each_cell([&](const PointerKey&, WeightCell& c) {
    double s = c.session.load(std::memory_order_relaxed);
    if (weight_absent(s)) return;
    // Only this lock's holder writes global values.
    const double g = c.global.load(std::memory_order_relaxed);
    double merged = g;
    if (s >= params_.infinity()) {
      // Conservative: never override a known global weight with infinity.
      if (weight_absent(g)) merged = s;
    } else if (weight_absent(g) || g >= params_.infinity()) {
      // A success demotes a recorded infinity outright: the arc is provably
      // on a successful chain now.
      merged = s;
    } else {
      merged = (1.0 - params_.blend) * g + params_.blend * s;
    }
    c.global.store(merged, std::memory_order_relaxed);
    // Clear the session value only if it is still the one merged; a newer
    // update keeps its place for the next merge.
    c.session.compare_exchange_strong(s, kAbsentWeight, std::memory_order_release,
                                      std::memory_order_relaxed);
  });
}

std::size_t WeightStore::session_size() const {
  std::lock_guard lock(maintenance_);
  std::size_t n = 0;
  for_each_cell([&](const PointerKey&, const WeightCell& c) {
    n += !weight_absent(c.session.load(std::memory_order_relaxed));
  });
  return n;
}

std::size_t WeightStore::global_size() const {
  std::lock_guard lock(maintenance_);
  std::size_t n = 0;
  for_each_cell([&](const PointerKey&, const WeightCell& c) {
    n += !weight_absent(c.global.load(std::memory_order_relaxed));
  });
  return n;
}

std::unordered_map<PointerKey, double, PointerKeyHash> WeightStore::snapshot() const {
  std::lock_guard lock(maintenance_);
  std::unordered_map<PointerKey, double, PointerKeyHash> out;
  for_each_cell([&](const PointerKey& k, const WeightCell& c) {
    const double s = c.session.load(std::memory_order_acquire);
    const double g = c.global.load(std::memory_order_relaxed);
    if (!weight_absent(s)) {
      out.emplace(k, s);
    } else if (!weight_absent(g)) {
      out.emplace(k, g);
    }
  });
  return out;
}

}  // namespace blog::db
