// Term printing in Edinburgh syntax (lists, operators, variables).
//
// The writer is the inverse of the reader (reader.hpp): every
// `BLOG_OPERATORS` row (ops.hpp) renders in operator form at its priority,
// and in quoted mode the text of any term reads back as the same term
// (up to variable identity, which follows the printed names).
#pragma once

#include <string>

#include "blog/term/store.hpp"

namespace blog::term {

struct WriteOptions {
  bool quoted = false;      // quote atoms that need it
  bool number_vars = true;  // unnamed vars print as _G<idx>; false: as `_`
};

/// Append the text of `t` (after deref) to `out`, bracketed when its
/// priority exceeds `max_priority` (999 for an argument or a conjunct).
void write_term(std::string& out, const Store& store, TermRef t,
                const WriteOptions& opts = {}, int max_priority = 1200);

/// Render `t` (after deref) as text.
std::string to_string(const Store& store, TermRef t, const WriteOptions& opts = {});

}  // namespace blog::term
