#include "blog/search/frontier.hpp"

#include <algorithm>
#include <limits>

namespace blog::search {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::DepthFirst: return "depth-first";
    case Strategy::BreadthFirst: return "breadth-first";
    case Strategy::BestFirst: return "best-first";
  }
  return "?";
}

namespace {

/// Smallest bound among `nodes`; +infinity when there are none.
template <typename Nodes>
double scan_min_bound(const Nodes& nodes) {
  double best = std::numeric_limits<double>::infinity();
  for (const Node& n : nodes) best = std::min(best, n.bound);
  return best;
}

}  // namespace

void DepthFirstFrontier::push(Node n) { stack_.push_back(std::move(n)); }

Node DepthFirstFrontier::pop() {
  Node n = std::move(stack_.back());
  stack_.pop_back();
  return n;
}

double DepthFirstFrontier::min_bound() const { return scan_min_bound(stack_); }

std::size_t DepthFirstFrontier::prune_above(double cutoff) {
  const auto before = stack_.size();
  std::erase_if(stack_, [&](const Node& n) { return n.bound > cutoff; });
  return before - stack_.size();
}

void BreadthFirstFrontier::push(Node n) { q_.push_back(std::move(n)); }

Node BreadthFirstFrontier::pop() {
  Node n = std::move(q_.front());
  q_.pop_front();
  return n;
}

double BreadthFirstFrontier::min_bound() const { return scan_min_bound(q_); }

std::size_t BreadthFirstFrontier::prune_above(double cutoff) {
  const auto before = q_.size();
  std::erase_if(q_, [&](const Node& n) { return n.bound > cutoff; });
  return before - q_.size();
}

void BestFirstFrontier::push(Node n) {
  heap_.push_back(Entry{n.bound, seq_++, std::move(n)});
  std::push_heap(heap_.begin(), heap_.end(), Cmp{});
}

Node BestFirstFrontier::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Cmp{});
  Node n = std::move(heap_.back().node);
  heap_.pop_back();
  return n;
}

double BestFirstFrontier::min_bound() const {
  // Guard the empty heap: reading heap_.front() unguarded was UB for
  // pollers that race the last pop. Empty means "nothing to beat".
  if (heap_.empty()) return std::numeric_limits<double>::infinity();
  return heap_.front().bound;
}

std::size_t BestFirstFrontier::prune_above(double cutoff) {
  const auto before = heap_.size();
  std::erase_if(heap_, [&](const Entry& e) { return e.bound > cutoff; });
  std::make_heap(heap_.begin(), heap_.end(), Cmp{});
  return before - heap_.size();
}

std::unique_ptr<Frontier> make_frontier(Strategy s) {
  switch (s) {
    case Strategy::DepthFirst: return std::make_unique<DepthFirstFrontier>();
    case Strategy::BreadthFirst: return std::make_unique<BreadthFirstFrontier>();
    case Strategy::BestFirst: return std::make_unique<BestFirstFrontier>();
  }
  return nullptr;
}

}  // namespace blog::search
