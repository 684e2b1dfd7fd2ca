#!/usr/bin/env python3
"""Repo-specific lint, run in CI (see .github/workflows/ci.yml `lint` job).

Checks, each independent (all run; any failure fails the process):

1. X-macro sync.
   - Every `BLOG_HEAD_OPS` row has a matching `case HeadOp::k<Name>` in the
     dispatch loop of src/db/head_code.cpp (the enum/name tables expand the
     macro directly, but the switch is hand-written and can drift).
   - Every `BLOG_TRACE_EVENTS` display string appears in the hand-maintained
     event table of docs/OBSERVABILITY.md (the code-side tables expand the
     macro; the doc is the consumer that goes stale).

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
        if f"case HeadOp::k{name}" not in cpp:
            err(f"BLOG_HEAD_OPS row {name} has no `case HeadOp::k{name}` "
                "in src/db/head_code.cpp dispatch loop")


def check_trace_events() -> None:
    hpp = (REPO / "include/blog/obs/trace.hpp").read_text()
    doc_path = REPO / "docs/OBSERVABILITY.md"
    names = macro_rows(hpp, "BLOG_TRACE_EVENTS")
    if not names:
        err("BLOG_TRACE_EVENTS table not found in include/blog/obs/trace.hpp")
        return
    # Displays: second argument of each row (scoped to the macro body,
    # not doc comments elsewhere in the header).
    displays = re.findall(r'X\(\s*[A-Za-z_][A-Za-z0-9_]*\s*,\s*"([^"]+)"',
                          macro_body(hpp, "BLOG_TRACE_EVENTS"))
    if not doc_path.exists():
        err("docs/OBSERVABILITY.md missing (BLOG_TRACE_EVENTS consumer)")
        return
    doc = doc_path.read_text()
    for display in displays:
        if display not in doc:
            err(f"BLOG_TRACE_EVENTS display \"{display}\" missing from "
                "docs/OBSERVABILITY.md event table")


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
    check_header_self_containment()
    check_todo_references()
    check_tuning_knobs()
    check_doc_anchors()
    if ERRORS:
        print(f"lint_blog: {len(ERRORS)} finding(s)", file=sys.stderr)
        return 1
    print("lint_blog: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
