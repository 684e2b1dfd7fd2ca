/// \file
/// \brief Frontier (open list) policies: the only difference between
/// Prolog-style depth-first, breadth-first and B-LOG best-first search
/// (§3).
#pragma once

#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "blog/search/node.hpp"

namespace blog::search {

/// Which open-list policy drives the sequential search (§3).
enum class Strategy { DepthFirst, BreadthFirst, BestFirst };

/// Stable display name of a strategy ("depth-first" etc.).
const char* strategy_name(Strategy s);

/// Abstract open list.
class Frontier {
public:
  virtual ~Frontier() = default;
  /// Add a node.
  virtual void push(Node n) = 0;
  /// Remove and return the node the policy explores next.
  virtual Node pop() = 0;
  /// True when no nodes are queued.
  [[nodiscard]] virtual bool empty() const = 0;
  /// Number of queued nodes.
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Smallest bound currently in the frontier; +infinity when empty.
  /// BestFirst reads its heap top in O(1) (the in-place engine's burst
  /// admissibility test polls it every expansion); DepthFirst and
  /// BreadthFirst, which nothing polls, scan.
  [[nodiscard]] virtual double min_bound() const = 0;
  /// Drop all nodes with bound > cutoff; returns how many were pruned.
  virtual std::size_t prune_above(double cutoff) = 0;
};

/// LIFO — children pushed in reverse clause order reproduce Prolog's
/// leftmost-first traversal.
class DepthFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return stack_.empty(); }
  [[nodiscard]] std::size_t size() const override { return stack_.size(); }
  [[nodiscard]] double min_bound() const override;
  std::size_t prune_above(double cutoff) override;

private:
  std::vector<Node> stack_;
};

/// FIFO.
class BreadthFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::size_t size() const override { return q_.size(); }
  [[nodiscard]] double min_bound() const override;
  std::size_t prune_above(double cutoff) override;

private:
  std::deque<Node> q_;
};

/// Min-heap on (bound, insertion order): the branch-and-bound open list.
/// Ties break FIFO so equal-bound nodes expand in generation order.
class BestFirstFrontier final : public Frontier {
public:
  void push(Node n) override;
  Node pop() override;
  [[nodiscard]] bool empty() const override { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }
  [[nodiscard]] double min_bound() const override;
  std::size_t prune_above(double cutoff) override;

private:
  struct Entry {
    double bound;
    std::uint64_t seq;
    Node node;
  };
  struct Cmp {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return a.bound > b.bound;
      return a.seq > b.seq;
    }
  };
  std::vector<Entry> heap_;  // std::*_heap managed
  std::uint64_t seq_ = 0;
};

/// Frontier factory by strategy.
std::unique_ptr<Frontier> make_frontier(Strategy s);

}  // namespace blog::search
