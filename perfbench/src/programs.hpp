// Seeded program texts and request generators of the three workloads, each
// with its closed-form answers: the generator knows every answer, so the
// oracle is fixed before the timed window and needs no engine run.
//
// Answers are in the engine's canonical form (engine::solution_texts):
// "Name=Value" pairs joined by ',' in the query's variable order, sorted
// byte-wise and deduplicated.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blog/support/rng.hpp"

namespace perfbench {

using Answers = std::vector<std::string>;

/// Sort + deduplicate: the canonical answer-set form.
Answers canonical(Answers a);

/// One query text with its expected answer set.
struct Case {
  std::string text;
  Answers expected;
};

/// Company database: `employees` e<i> spread evenly over `departments`
/// d<k> (managed by m<k>), four salary bands spread evenly within each
/// department; which employee lands where is a seeded permutation, so every
/// seed does the same amount of work. Same predicates as
/// workloads::deductive_db: works_in/2, salary_band/2, manages/2 and the
/// views boss/2, peer/2.
class Company {
public:
  Company(blog::Rng& rng, int employees, int departments);

  [[nodiscard]] std::string text() const;
  [[nodiscard]] int employees() const { return static_cast<int>(dept_.size()); }
  [[nodiscard]] int departments() const { return departments_; }

  /// Point lookups and a two-goal join, all keyed by employee: the serving
  /// mix's cache misses. kind in [0, 4).
  [[nodiscard]] Case lookup(int kind, int employee) const;
  static constexpr int kLookupKinds = 4;

  /// `salary_band(A,<band>), works_in(A,d<k>)`: both goals bind only their
  /// second argument, so first-argument indexing cannot narrow the scan.
  [[nodiscard]] Case selection(int department, int band) const;
  /// Employees of `department` in salary band `band` (any band when
  /// negative), as "A=e<i>" texts: the answers of selection().
  [[nodiscard]] Answers selected(int department, int band) const;
  [[nodiscard]] Answers members(int department) const { return selected(department, -1); }

  static const char* band_name(int b);

private:
  int departments_;
  std::vector<int> dept_;  // per employee
  std::vector<int> band_;  // per employee
};

/// N-queens: the select/safe/qplace program of workloads::queens plus one
/// queens<n>(Qs) entry per size in `sizes`.
std::string queens_program(const std::vector<int>& sizes);
/// Every solution of queens<n>(Q), as "Q=[...]" texts (canonical).
Answers queens_answers(int n);

/// Layered DAG (workloads::layered_dag): `path(n0_<from>,n<layers>_<to>,P)`
/// and its width^(layers-1) paths.
Case dag_paths(int layers, int width, int from, int to);

/// Naive reverse: app/3 + nrev/2, one deterministic chain of
/// length²/2 resolution steps.
std::string nrev_program();
/// `nrev([...],R)` over `length` seeded integers.
Case nrev_case(blog::Rng& rng, int length);

/// The paper's Figure-1 family (workloads::figure1_family) and a few of its
/// grandfather queries.
std::vector<Case> family_cases();

/// `works_in(A,d<k>), queens<n>(Q)`: a company-database selection beside a
/// search goal, two independent groups whose answers are the cross product
/// of the two sets.
Case members_with_queens(const Company& c, int department, int n);

}  // namespace perfbench
