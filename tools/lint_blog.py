#!/usr/bin/env python3
"""Repo-specific lint, run in CI (see .github/workflows/ci.yml `lint` job).

Checks, each independent (all run; any failure fails the process):

1. X-macro sync. The code-side tables expand each macro directly; the
   hand-written switches and doc tables are the consumers that drift.
   - Every `BLOG_HEAD_OPS` row has a matching `case HeadOp::k<Name>` in the
     dispatch loop of src/db/head_code.cpp.
   - `BLOG_TRACE_EVENTS` rows and the event table of docs/OBSERVABILITY.md
     match both ways: every macro row has a doc row, every doc row names a
     macro row, and the two agree on the category.
   - `BLOG_BUILTINS` rows and the builtin table of docs/ANALYSIS.md match
     both ways on name, arity and axiom, and every row has a matching
     `case BuiltinId::k<Id>` in StandardBuiltins::eval
     (src/engine/builtins.cpp).

2. Header self-containment: every public header under include/blog compiles
   standalone (`g++ -fsyntax-only -std=c++20 -I include` on a one-line TU).

3. TODO/FIXME hygiene: every TODO or FIXME in sources must carry an ISSUE
   reference (the literal string "ISSUE" on the same line), so stale notes
   can be traced to a tracked task.

4. Knob tables: every knob named in the first column of a docs/TUNING.md
   table (`name`, `Struct::name` or `outer.inner`) is a data member
   declared in one of the options headers (OPTIONS_HEADERS), so a deleted
   option cannot linger in the docs.

5. Doc anchors: every `path:line` in docs/*.md and README.md names an
   existing file and a line inside it. When a backticked name directly
   precedes the anchor (only spaces, `(` or `,` between them, as in
   `Runner::load` (`include/...:123`)), the name's last `::` component
   appears within ANCHOR_SLACK lines of the anchored line, so an anchor
   that drifted off its declaration fails instead of pointing elsewhere.

6. Live options: every data member of the option structs in
   REFERENCED_STRUCTS is referenced (read or written, as `.name` or
   `->name`) somewhere under src/, so a knob whose last reader went cannot
   linger in the API.

7. Set options: every data member of those structs except the ones in
   UNSET_OK_STRUCTS is assigned (`.name =` or `->name =`, designated
   initializers included) somewhere under ASSIGNING_ROOTS, so a knob that
   nothing ever sets becomes a constant instead of lingering in the API.

Exit code 0 = clean, 1 = findings (printed one per line, grep-friendly).
"""

from __future__ import annotations

import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ERRORS: list[str] = []

# Headers declaring the option structs that docs/TUNING.md documents.
OPTIONS_HEADERS = [
    "include/blog/parallel/engine.hpp",
    "include/blog/parallel/executor.hpp",
    "include/blog/search/limits.hpp",
    "include/blog/search/node.hpp",
    "include/blog/service/service.hpp",
    "include/blog/andp/exec.hpp",
]


# How far (in lines) a named anchor may sit from its name's declaration.
ANCHOR_SLACK = 3

# Option structs whose every data member src/ must reference (check 6).
REFERENCED_STRUCTS = {
    "include/blog/parallel/engine.hpp": ["ParallelOptions"],
    "include/blog/parallel/executor.hpp": ["ExecutorOptions", "JobRequest"],
    "include/blog/parallel/scheduler.hpp": ["SchedulerTuning"],
    "include/blog/search/engine.hpp": ["SearchOptions"],
    "include/blog/search/node.hpp": ["ExpanderOptions"],
    "include/blog/search/limits.hpp": ["ExecutionLimits"],
    "include/blog/service/service.hpp": ["ServiceOptions", "QueryRequest"],
    "include/blog/andp/exec.hpp": ["AndParallelOptions"],
}

# Check 7: where an option must be assigned, and the structs exempt from it
# (a JobRequest is a request the caller fills, not a set of knobs).
ASSIGNING_ROOTS = ["src", "tests", "bench", "examples", "perfbench"]
UNSET_OK_STRUCTS = {"JobRequest"}


def err(msg: str) -> None:
    ERRORS.append(msg)
    print(f"lint_blog: {msg}", file=sys.stderr)


def macro_body(text: str, macro: str) -> str:
    """Body of `#define <macro>(X) ...` (all backslash-continued lines)."""
    m = re.search(rf"#define {macro}\(X\)", text)
    if not m:
        return ""
    body_lines = []
    for line in text[m.start():].splitlines():
        body_lines.append(line)
        if not line.rstrip().endswith("\\"):
            break
    body = "\n".join(body_lines)
    return re.sub(r"/\*.*?\*/", "", body, flags=re.S)  # strip comments


def macro_rows(text: str, macro: str) -> list[str]:
    """First identifier of each `X(...)` row inside `#define <macro>(X) ...`."""
    return re.findall(r"\bX\(\s*([A-Za-z_][A-Za-z0-9_]*)",
                      macro_body(text, macro))


def check_head_ops() -> None:
    hpp = (REPO / "include/blog/db/head_code.hpp").read_text()
    cpp = (REPO / "src/db/head_code.cpp").read_text()
    names = macro_rows(hpp, "BLOG_HEAD_OPS")
    if not names:
        err("BLOG_HEAD_OPS table not found in include/blog/db/head_code.hpp")
        return
    for name in names:
        if not re.search(rf"case HeadOp::k{name}\b", cpp):
            err(f"BLOG_HEAD_OPS row {name} has no `case HeadOp::k{name}` "
                "in src/db/head_code.cpp dispatch loop")


def doc_table(doc: str, header: str) -> list[tuple[int, list[str]]]:
    """(line number, cells) of each body row of the markdown table whose
    header row's first cell is `header`; backticks are stripped."""
    rows = []
    in_table = False
    for lineno, line in enumerate(doc.splitlines(), 1):
        if not line.startswith("|"):
            in_table = False
            continue
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if cells[0] == header:
            in_table = True
        elif in_table and not set(cells[0]) <= set("-: "):
            rows.append((lineno, cells))
    return rows


def c_string(literal: str) -> str:
    """Value of a C string literal's body (only `\\` and `\"` occur)."""
    return re.sub(r'\\(.)', r"\1", literal)


def macro_table(macro: str, hpp_path: str, row_re: str) -> list[tuple[str, ...]]:
    """The groups of `row_re` for each row of `#define <macro>(X) ...`."""
    rows = re.findall(row_re, macro_body((REPO / hpp_path).read_text(), macro))
    if not rows:
        err(f"{macro} table not found in {hpp_path}")
    return rows


def check_doc_table(macro: str, rows: list[tuple[str, ...]], doc_path: str,
                    header: str) -> None:
    """Both-way match of a macro's rows against the leading columns of the
    doc table whose first header cell is `header`."""
    if not rows:
        return
    doc_file = REPO / doc_path
    doc_rows = doc_table(doc_file.read_text(), header) if doc_file.exists() else []
    if not doc_rows:
        err(f"{doc_path}: no table headed `{header}` ({macro} consumer)")
        return
    width = len(rows[0])
    code = set(rows)
    doc = {tuple(cells[:width]) for _, cells in doc_rows}
    for row in rows:
        if row not in doc:
            err(f"{macro} row {' / '.join(row)} has no matching row in the "
                f"{doc_path} `{header}` table")
    for lineno, cells in doc_rows:
        if tuple(cells[:width]) not in code:
            err(f"{doc_path}:{lineno}: `{header}` row "
                f"{' / '.join(cells[:width])} matches no {macro} row")


def check_trace_events() -> None:
    rows = macro_table("BLOG_TRACE_EVENTS", "include/blog/obs/trace.hpp",
                       r'X\(\s*\w+\s*,\s*"([^"]+)"\s*,\s*"([^"]+)"\s*\)')
    check_doc_table("BLOG_TRACE_EVENTS", rows, "docs/OBSERVABILITY.md", "event")


def check_builtins() -> None:
    hpp_path = "include/blog/engine/builtins.hpp"
    rows = macro_table(
        "BLOG_BUILTINS", hpp_path,
        r'X\(\s*(\w+)\s*,\s*"((?:[^"\\]|\\.)*)"\s*,\s*(\d+)\s*,\s*(\w+)\s*\)')
    check_doc_table("BLOG_BUILTINS",
                    [(c_string(name), arity, axiom) for _, name, arity, axiom in rows],
                    "docs/ANALYSIS.md", "builtin")
    cpp = (REPO / "src/engine/builtins.cpp").read_text()
    for ident, *_ in rows:
        if not re.search(rf"case BuiltinId::k{ident}\b", cpp):
            err(f"BLOG_BUILTINS row {ident} has no `case BuiltinId::k{ident}` "
                "in src/engine/builtins.cpp")


def check_header_self_containment() -> None:
    headers = sorted((REPO / "include" / "blog").rglob("*.hpp"))
    if not headers:
        err("no headers found under include/blog")
        return
    with tempfile.TemporaryDirectory() as td:
        tu = Path(td) / "tu.cpp"
        for h in headers:
            rel = h.relative_to(REPO / "include")
            tu.write_text(f'#include "{rel.as_posix()}"\n')
            r = subprocess.run(
                ["g++", "-std=c++20", "-fsyntax-only",
                 "-I", str(REPO / "include"), str(tu)],
                capture_output=True, text=True)
            if r.returncode != 0:
                first = (r.stderr.strip().splitlines() or ["?"])[0]
                err(f"header {rel.as_posix()} does not compile standalone: "
                    f"{first}")


def check_todo_references() -> None:
    roots = ["include", "src", "tests", "bench", "examples", "tools"]
    pat = re.compile(r"\b(TODO|FIXME)\b")
    for root in roots:
        base = REPO / root
        if not base.exists():
            continue
        for f in sorted(base.rglob("*")):
            if f.suffix not in {".hpp", ".cpp", ".h", ".cc", ".py"}:
                continue
            if f.name == Path(__file__).name:
                continue  # this linter's own docs mention the markers
            for lineno, line in enumerate(f.read_text().splitlines(), 1):
                if pat.search(line) and "ISSUE" not in line:
                    rel = f.relative_to(REPO)
                    err(f"{rel}:{lineno}: {pat.search(line).group(1)} "
                        "without ISSUE reference")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def declared_fields(text: str) -> set[str]:
    """Names declared as `<type> name;`, `<type> name = ...;` or
    `<type> name{...};` — data members, in an options header."""
    return set(re.findall(
        r"[\w>*&]\s+([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;", text))


def struct_bodies(text: str) -> dict[str, str]:
    """Body text of every `struct`/`class` definition, by name."""
    bodies: dict[str, str] = {}
    for m in re.finditer(r"\b(?:struct|class)\s+(\w+)[^;{]*\{", text):
        depth, i = 1, m.end()
        while depth and i < len(text):
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        bodies.setdefault(m.group(1), text[m.end():i - 1])
    return bodies


def check_tuning_knobs() -> None:
    doc = (REPO / "docs/TUNING.md").read_text()
    code = "\n".join(strip_comments((REPO / h).read_text())
                     for h in OPTIONS_HEADERS)
    fields = declared_fields(code)
    bodies = struct_bodies(code)
    in_table = False
    for lineno, line in enumerate(doc.splitlines(), 1):
        cells = line.split("|")
        if not line.startswith("|") or len(cells) < 3:
            in_table = False
            continue
        first = cells[1].strip()
        if first == "knob":  # header row of a knob table
            in_table = True
            continue
        if not in_table or set(first) <= set("-: "):
            continue
        for knob in re.findall(r"`([^`]+)`", first):
            owner, _, name = knob.rpartition("::")
            if owner and owner not in bodies:
                err(f"docs/TUNING.md:{lineno}: knob `{knob}`: no struct "
                    f"{owner} in the options headers")
                continue
            scope = declared_fields(bodies[owner]) if owner else fields
            if any(part not in scope for part in name.split(".")):
                err(f"docs/TUNING.md:{lineno}: knob `{knob}` is not a field "
                    f"declared in {owner or 'the options headers'}")


def check_referenced_options() -> None:
    src = "\n".join(strip_comments(p.read_text())
                    for p in sorted((REPO / "src").rglob("*"))
                    if p.suffix in (".cpp", ".hpp"))
    used = set(re.findall(r"(?:\.|->)\s*([A-Za-z_]\w*)", src))
    for header, structs in REFERENCED_STRUCTS.items():
        bodies = struct_bodies(strip_comments((REPO / header).read_text()))
        for struct in structs:
            if struct not in bodies:
                err(f"{header}: no struct {struct} (check 6)")
                continue
            for field in sorted(declared_fields(bodies[struct]) - used):
                err(f"{header}: {struct}::{field} is referenced nowhere "
                    f"under src/")


def check_assigned_options() -> None:
    code = "\n".join(strip_comments(p.read_text())
                     for root in ASSIGNING_ROOTS
                     for p in sorted((REPO / root).rglob("*"))
                     if p.suffix in (".cpp", ".hpp"))
    assigned = set(re.findall(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*=(?!=)", code))
    for header, structs in REFERENCED_STRUCTS.items():
        bodies = struct_bodies(strip_comments((REPO / header).read_text()))
        for struct in structs:
            if struct in UNSET_OK_STRUCTS or struct not in bodies:
                continue  # a missing struct is check 6's finding
            for field in sorted(declared_fields(bodies[struct]) - assigned):
                err(f"{header}: {struct}::{field} is assigned nowhere under "
                    f"{'/, '.join(ASSIGNING_ROOTS)}/: make it a constant")


ANCHOR = re.compile(r"`([\w./-]+\.\w+):(\d+)`")
# A backticked identifier (optionally `::`-qualified, optionally with `()`)
# followed by nothing but spaces, `(` or `,` up to the anchor.
PRECEDING_NAME = re.compile(r"`([A-Za-z_]\w*(?:::\w+)*)(?:\(\))?`[\s(,]*\Z")


def check_doc_anchors() -> None:
    docs = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]
    for doc in docs:
        text = doc.read_text()
        rel_doc = doc.relative_to(REPO).as_posix()
        for m in ANCHOR.finditer(text):
            path, line = m.group(1), int(m.group(2))
            where = f"{rel_doc}:{text.count(chr(10), 0, m.start()) + 1}"
            target = REPO / path
            if not target.is_file():
                err(f"{where}: anchor `{path}:{line}` names no file")
                continue
            lines = target.read_text().splitlines()
            if not 1 <= line <= len(lines):
                err(f"{where}: anchor `{path}:{line}` is past the end of "
                    f"the file ({len(lines)} lines)")
                continue
            name = PRECEDING_NAME.search(text, 0, m.start())
            if not name:
                continue
            last = name.group(1).rpartition("::")[2]
            lo = max(0, line - 1 - ANCHOR_SLACK)
            window = "\n".join(lines[lo:line + ANCHOR_SLACK])
            if last not in window:
                err(f"{where}: anchor `{path}:{line}` for `{name.group(1)}`: "
                    f"`{last}` is not within {ANCHOR_SLACK} lines of it")


def main() -> int:
    check_head_ops()
    check_trace_events()
    check_builtins()
    check_header_self_containment()
    check_todo_references()
    check_tuning_knobs()
    check_doc_anchors()
    check_referenced_options()
    check_assigned_options()
    if ERRORS:
        print(f"lint_blog: {len(ERRORS)} finding(s)", file=sys.stderr)
        return 1
    print("lint_blog: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
