#include "blog/search/update.hpp"

namespace blog::search {

// Every walk reads and writes through the cell each arc carries: no key
// lookup and no lock per arc.

bool update_on_failure(db::WeightStore& ws, const Chain* chain) {
  // One pass leaf→root: remember the first (nearest-leaf) unknown arc and
  // whether any arc is already infinite *by current effective weight*.
  const Chain* nearest_unknown = nullptr;
  for (const Chain* c = chain; c != nullptr; c = c->parent.get()) {
    const db::WeightKind k = ws.kind(*c->arc.cell);
    if (k == db::WeightKind::Infinite) return false;  // already explained
    if (k == db::WeightKind::Unknown && nearest_unknown == nullptr)
      nearest_unknown = c;
  }
  if (nearest_unknown == nullptr) return false;  // anomaly: all known (§5)
  ws.set_session(*nearest_unknown->arc.cell, ws.params().infinity());
  return true;
}

std::size_t update_on_success(db::WeightStore& ws, const Chain* chain) {
  double known_sum = 0.0;
  std::size_t k = 0;
  for (const Chain* c = chain; c != nullptr; c = c->parent.get()) {
    const double w = ws.weight(*c->arc.cell);
    if (ws.classify(w) == db::WeightKind::Known) {
      known_sum += w;
    } else {
      ++k;
    }
  }
  if (k == 0) return 0;
  const double n = ws.params().n;
  const double each = known_sum > n ? 0.0 : (n - known_sum) / static_cast<double>(k);
  std::size_t set = 0;
  for (const Chain* c = chain; c != nullptr; c = c->parent.get()) {
    if (ws.kind(*c->arc.cell) != db::WeightKind::Known) {
      ws.set_session(*c->arc.cell, each);
      ++set;
    }
  }
  return set;
}

double chain_bound_now(const db::WeightStore& ws, const Chain* chain) {
  double b = 0.0;
  for (const Chain* c = chain; c != nullptr; c = c->parent.get())
    b += ws.weight(*c->arc.cell);
  return b;
}

}  // namespace blog::search
