"""List the statements in `src/subpartition` function bodies that Tier-1 never runs.

Runs the Tier-1 suite in this process through `pytest.main`, with a line
tracer (`sys.settrace` and `threading.settrace`) that records line events
only in frames whose code lives under `src/subpartition/`.  Then every
function body in the package is walked with `ast`: a statement ran when
some line of its span had a line event.  The outermost statements that
never ran are printed (docstrings excluded; a statement inside one that
never ran is not listed again).

Exit status: the suite's own status when it fails, else 1 when any
statement never ran, else 0.  Line events for statements spread over
several lines differ between Python versions; the check is kept for
Python 3.11.

Usage, from the repository root:

    python tools/unrun_src_lines.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subpartition"

def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run Tier-1 under the line tracer; (pytest status, lines hit per file)."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing, so its import is not traced

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]
            + pytest_args
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _child_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = [getattr(stmt, field, None) for field in ("body", "orelse", "finalbody")]
    bodies += [handler.body for handler in getattr(stmt, "handlers", ())]
    bodies += [case.body for case in getattr(stmt, "cases", ())]
    return [body for body in bodies if isinstance(body, list)]


def unrun_statements(source: str, lines_hit: set[int]) -> list[tuple[str, ast.stmt]]:
    """(qualified name, statement) for the outermost function-body statements
    of one module whose span has no line in `lines_hit`."""
    found: list[tuple[str, ast.stmt]] = []

    def ran(stmt: ast.stmt) -> bool:
        return any(line in lines_hit for line in range(stmt.lineno, stmt.end_lineno + 1))

    def walk(body: list[ast.stmt], scope: str, in_function: bool) -> None:
        for i, stmt in enumerate(body):
            if i == 0 and in_function and _is_docstring(stmt):
                continue
            if in_function and not ran(stmt):
                found.append((scope, stmt))
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(stmt.body, f"{scope}.{stmt.name}".lstrip("."), True)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{scope}.{stmt.name}".lstrip("."), False)
            else:
                for child in _child_bodies(stmt):
                    walk(child, scope, in_function)

    walk(ast.parse(source).body, "", False)
    return found


def main(argv: list[str]) -> int:
    status, hits = trace_suite(argv)
    if status != 0:
        print(f"the test suite failed (pytest status {status}); no line report")
        return status
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for scope, stmt in unrun_statements(source, hits.get(str(path), set())):
            text = ast.get_source_segment(source, stmt).splitlines()[0].strip()
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{stmt.lineno}  {scope}: {text}")
    print(f"{unrun} unrun statement(s) in src/subpartition functions")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
