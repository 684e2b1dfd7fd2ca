// Operator table shared by the reader and the writer.
//
// Every operator the reader accepts is one `BLOG_OPERATORS` row; the writer
// renders exactly these rows in operator form, at the row's priority, so
// that writing a term and reading the text back gives the same term.
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

namespace blog::term {

/// ISO operator types: `f` is the operator; an `x` argument has a priority
/// strictly below the operator's, a `y` argument at most equal to it.
enum class OpType : std::uint8_t { xfx, xfy, yfx, fy, fx };

/// X-macro table of every operator: `X("name", priority, type)`. A name
/// may have one infix and one prefix row (`-`, `+`, `:-`). The reader and
/// the writer both expand this list, so a row added here is parsed and
/// printed alike.
#define BLOG_OPERATORS(X) \
  X(":-", 1200, xfx)      \
  X(":-", 1200, fx)       \
  X("?-", 1200, fx)       \
  X(";", 1100, xfy)       \
  X("->", 1050, xfy)      \
  X(",", 1000, xfy)       \
  X("\\+", 900, fy)       \
  X("=", 700, xfx)        \
  X("\\=", 700, xfx)      \
  X("==", 700, xfx)       \
  X("\\==", 700, xfx)     \
  X("is", 700, xfx)       \
  X("<", 700, xfx)        \
  X(">", 700, xfx)        \
  X("=<", 700, xfx)       \
  X(">=", 700, xfx)       \
  X("=:=", 700, xfx)      \
  X("=\\=", 700, xfx)     \
  X("@<", 700, xfx)       \
  X("@>", 700, xfx)       \
  X("+", 500, yfx)        \
  X("-", 500, yfx)        \
  X("*", 400, yfx)        \
  X("//", 400, yfx)       \
  X("/", 400, yfx)        \
  X("mod", 400, yfx)      \
  X("-", 200, fy)         \
  X("+", 200, fy)

/// One `BLOG_OPERATORS` row.
struct OpDef {
  std::string_view name;
  int priority;
  OpType type;

  [[nodiscard]] constexpr bool prefix() const {
    return type == OpType::fy || type == OpType::fx;
  }
  /// Highest priority admitted as the left argument of an infix row.
  [[nodiscard]] constexpr int left_max() const {
    return type == OpType::yfx ? priority : priority - 1;
  }
  /// Highest priority admitted as the right (or only) argument.
  [[nodiscard]] constexpr int right_max() const {
    return type == OpType::xfy || type == OpType::fy ? priority : priority - 1;
  }
};

inline constexpr OpDef kOperators[] = {
#define BLOG_TERM_OP_ROW(name, priority, type) {name, priority, OpType::type},
    BLOG_OPERATORS(BLOG_TERM_OP_ROW)
#undef BLOG_TERM_OP_ROW
};

inline constexpr std::size_t kOperatorCount = std::size(kOperators);

/// The prefix (`prefix` = true) or infix row named `name`, or nullptr.
[[nodiscard]] constexpr const OpDef* find_operator(std::string_view name,
                                                   bool prefix) {
  for (const OpDef& op : kOperators)
    if (op.prefix() == prefix && op.name == name) return &op;
  return nullptr;
}

/// Characters that form symbol-char atoms (`=..`, `\==`, `:-`): the reader
/// takes a maximal run of them as one token, so the writer separates two
/// such tokens with a space.
inline constexpr std::string_view kSymbolChars = "+-*/\\^<>=~:.?@#&";

[[nodiscard]] constexpr bool is_symbol_char(char c) {
  return kSymbolChars.find(c) != std::string_view::npos;
}

}  // namespace blog::term
