// Fork planning for unified AND/OR execution (§7 on the §6 fabric).
//
// A conjunction is partitioned into independence groups (statically when
// PR 8's conjunction verdict proves it, by the memoized run-time scan
// otherwise), and each group becomes one or more *work items*: root
// queries seeded into one scheduler partition so sibling AND-groups and
// the OR-alternatives inside each are stolen by the same idle workers.
// Every item's answer template is wrapped as $andp(Id, $ans(V...)) so
// solutions self-identify their item at the join; the item id doubles as
// the fork tag for per-item node attribution.
#pragma once

#include "blog/andp/independence.hpp"
#include "blog/engine/interpreter.hpp"

namespace blog::andp {

/// How the conjunction is split into forked work items.
enum class ForkMode {
  Static,   ///< compile-time verdict first, run-time scan as fallback
  Runtime,  ///< always the run-time union-find scan
  Off,      ///< no forking: the whole conjunction is one item
};

[[nodiscard]] const char* fork_mode_name(ForkMode m);

/// One stealable unit of AND-parallel work: a root query (wrapped answer
/// template) plus the metadata the join needs to interpret its answers.
struct WorkItem {
  std::size_t id = 0;     ///< item index == fork tag == answer wrapper id
  std::size_t group = 0;  ///< owning independence group
  std::vector<std::size_t> goal_indices;  ///< conjunction goals covered
  /// The item's schema: the plan's columns this item binds, in query
  /// order (pairs of name and term in the parse store).
  std::vector<std::pair<Symbol, term::TermRef>> vars;
  search::Query query;  ///< answer template $andp(id, $ans(V...))
  /// Static analysis proved every goal grounds its arguments on success,
  /// so per-row groundness checks are redundant.
  bool assume_ground = false;
  /// Item is a single goal of a shared-variable group (semi-join strategy:
  /// per-goal relations combined at the join).
  bool per_goal = false;
};

/// The fork decision for one conjunction.
struct ForkPlan {
  /// The join schema, in query order: the query's named variables, or —
  /// for a conjunction that names none, whose answer is its own instance
  /// (engine::parse_query) — one column per goal holding its instance.
  std::vector<std::pair<Symbol, term::TermRef>> columns;
  bool instances = false;  ///< `columns` are goal instances
  std::vector<WorkItem> items;
  IndependenceAnalysis analysis;  ///< the grouping (groups + shared vars)
  /// The compile-time verdict alone proved independence (no run-time scan).
  bool static_independent = false;
  /// group index -> item ids, in goal order (one id per group, or one per
  /// goal for semi-join groups).
  std::vector<std::vector<std::size_t>> group_items;
};

/// True when the static analysis proved every goal's predicate grounds all
/// its arguments on success (sound: Mode::Ground is only claimed when
/// provable). `static_analysis` gates the lookup (mirrors
/// ExpanderOptions::static_analysis).
bool statically_all_ground(const engine::Interpreter& ip, const term::Store& s,
                           std::span<const term::TermRef> goals,
                           bool static_analysis);

/// Split a conjunction term into its goals (comma tree, left-to-right).
void flatten_conjunction(const term::Store& s, term::TermRef t,
                         std::vector<term::TermRef>& out);

/// The columns the goals `goal_idx` bind, in column order: each named
/// variable occurring in them, and each of them as an instance column.
std::vector<std::pair<Symbol, term::TermRef>> slice_columns(
    const term::Store& store,
    const std::vector<std::pair<Symbol, term::TermRef>>& columns,
    const std::vector<term::TermRef>& goals,
    std::span<const std::size_t> goal_idx, GoalVarCache& cache);

/// A column's value in an answer, written as the sequential engine writes
/// it (search::solution_text): a variable's binding, or a goal instance.
std::string column_text(const term::Store& s, term::TermRef value,
                        bool instance);

/// Plan the fork of `goals` (parsed into `store`, named variables
/// `query_vars` in query order; none makes every goal an instance column).
/// `cache` memoizes per-goal variable scans;
/// `use_semi_join` splits shared-variable groups goal-per-item (builtin
/// goals force whole-group items — they constrain sibling bindings and
/// have no relation of their own).
ForkPlan plan_fork(engine::Interpreter& ip, const term::Store& store,
                   const std::vector<std::pair<Symbol, term::TermRef>>& query_vars,
                   const std::vector<term::TermRef>& goals, GoalVarCache& cache,
                   ForkMode mode, bool use_semi_join, bool static_analysis);

/// One answer decoded from a forked item's wrapped template.
struct DecodedAnswer {
  std::size_t item = 0;             ///< originating work item
  std::vector<std::string> values;  ///< rendered values, item schema order
  bool ground = true;               ///< every value was fully ground
};

/// Decode a $andp(Id, $ans(V...)) solution of a plan whose columns are
/// goal instances when `instances` (ForkPlan::instances).
DecodedAnswer decode_forked_answer(const search::Solution& sol,
                                   bool instances = false);

}  // namespace blog::andp
