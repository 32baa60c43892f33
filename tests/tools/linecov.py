"""Which ``src/repro`` lines the test suite never runs: a stdlib-only
line tracer loaded as a pytest plugin.

    PYTHONPATH=src python -m pytest -q -p tests.tools.linecov

Importing this module installs the tracer (``sys.settrace`` and
``threading.settrace``), so the modules ``tests/conftest.py`` imports are
traced from their first line.  Only frames whose file lies under
``src/repro`` get a local tracer; every other call costs one dict lookup.

At the end of the session every module under ``src/repro`` is compiled
and its executable lines are read from the line tables of its code
objects (``co_lines()``); a module no test imported counts whole.  The
body of an ``if TYPE_CHECKING:`` block does not count: CPython never runs
it, so no test can reach it.  The report, ``linecov.txt`` in the working
directory, opens with one summary line::

    linecov: <executable> executable lines, <unreached> unreached

followed by one ``<path>: <unreached> unreached: <line ranges>`` line per
file with any.  Line tables differ between CPython versions, so compare
counts from one version only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"
REPORT = Path("linecov.txt")

_prefix = f"{PACKAGE}/"
_hits: dict[str, set[int]] = {}
#: filename -> its local tracer, or None for a file outside the package.
_local: dict[str, object] = {}


def _local_for(filename: str):
    if not filename.startswith(_prefix):
        _local[filename] = None
        return None
    add = _hits.setdefault(filename, set()).add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    _local[filename] = local
    return local


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        return _local[filename]
    except KeyError:
        return _local_for(filename)


sys.settrace(_call)
threading.settrace(_call)


def _type_checking_only(tree: ast.AST) -> set[int]:
    """The lines of every ``if TYPE_CHECKING:`` body in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and (
            isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        ):
            lines.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    """Line numbers of ``path`` that some instruction belongs to, less
    those only a type checker reads."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines - _type_checking_only(ast.parse(source))


def _ranges(lines: list[int]) -> str:
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report() -> tuple[int, int, list[str]]:
    """``(executable, unreached, per-file lines)`` over every module."""
    total = unreached = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - _hits.get(str(path), set()))
        total += len(lines)
        unreached += len(missed)
        if missed:
            rel = path.relative_to(SRC.parent)
            rows.append(f"{rel}: {len(missed)} unreached: {_ranges(missed)}")
    return total, unreached, rows


_summary: list[str] = []


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    total, unreached, rows = report()
    _summary.append(f"linecov: {total} executable lines, {unreached} unreached")
    REPORT.write_text("\n".join([*_summary, *rows]) + "\n")


def pytest_terminal_summary(terminalreporter):
    for line in _summary:
        terminalreporter.write_line(f"{line} (per file: {REPORT})")
