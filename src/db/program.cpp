#include "blog/db/program.hpp"

#include "blog/term/reader.hpp"

namespace blog::db {
namespace {

Symbol clause_neck() {
  static const Symbol s = intern(":-");
  return s;
}

/// Flatten a `,`-tree into a goal list.
void flatten_conj(const term::Store& s, term::TermRef t,
                  std::vector<term::TermRef>& out) {
  t = s.deref(t);
  if (s.is_struct(t) && s.functor(t) == term::comma_symbol() && s.arity(t) == 2) {
    flatten_conj(s, s.arg(t, 0), out);
    flatten_conj(s, s.arg(t, 1), out);
    return;
  }
  out.push_back(t);
}

}  // namespace

ClauseId Program::add_clause(Clause c) {
  analysis_.reset();  // any edit invalidates the static analysis
  const auto id = static_cast<ClauseId>(clauses_.size());
  index_.add(c, id);
  clauses_.push_back(std::move(c));
  return id;
}

void Program::consult_string(std::string_view text) {
  term::Store scratch;
  term::Reader reader(text, scratch);
  term::VarMap vmap;
  while (auto rt = reader.next()) {
    const term::TermRef t = scratch.deref(rt->term);
    term::TermRef head = t;
    std::vector<term::TermRef> body;
    if (scratch.is_struct(t) && scratch.functor(t) == clause_neck() &&
        scratch.arity(t) == 2) {
      head = scratch.arg(t, 0);
      flatten_conj(scratch, scratch.arg(t, 1), body);
    }
    // Re-import head and body into the clause's private store so the
    // scratch store can be reused: emptied per clause, it (and the map
    // indexed by its cells) stays the size of the largest clause.
    term::Store cs;
    vmap.clear();
    const term::TermRef h = cs.import(scratch, head, vmap);
    std::vector<term::TermRef> b(body.size());
    for (std::size_t i = 0; i < body.size(); ++i)
      b[i] = cs.import(scratch, body[i], vmap);
    scratch.clear();
    add_clause(Clause(std::move(cs), h, std::move(b)));
  }
}

const std::vector<ClauseId>& Program::candidates(const Pred& p) const {
  return index_.all(p);
}

std::vector<Pred> Program::predicates() const { return index_.predicates(); }

std::size_t Program::pointer_count() const {
  std::size_t n = 0;
  for (const Clause& c : clauses_) {
    for (const auto g : c.body()) {
      n += candidates(pred_of(c.store(), g)).size();
    }
  }
  return n;
}

}  // namespace blog::db
