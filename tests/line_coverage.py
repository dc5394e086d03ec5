"""Statement coverage of ``src/hprlp`` by the tier-1 suite, with the
standard library alone.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

runs pytest in this process (``tests`` and ``-q`` unless arguments are
given) under a ``sys.settrace`` / ``threading.settrace`` collector that
traces lines only in frames of code under ``src/hprlp``, then prints one
line for each statement of the package that never ran, as
``path:line: source``, and exits 1 when it printed any (2 when the suite
itself failed).  It takes about 2.5 times as long as the plain suite.

A statement ran when a line event fired on one of its lines (the header
lines of a compound statement, all lines of a simple one).  A statement
counts only where its lines hold bytecode: a docstring or a bare
``def`` line inside a class body holds none of its own.  A statement
whose first (header) lines carry ``# pragma: no cover`` is left out, with
every statement nested in it.  The package must be imported after the
collector starts, so that its module-level statements are seen; run
this script as the first import of ``hprlp`` in its process.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hprlp"
PRAGMA = "# pragma: no cover"


def _first(node: ast.AST) -> int:
    """The first line of a statement, its decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def _statements(tree: ast.Module):
    """Each statement with its first line and the last line of its
    header: the line before its first nested statement, or its own last
    line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            nested = [_first(child) for field in ("body", "orelse", "finalbody", "handlers")
                      for child in getattr(node, field, []) or []]
            if isinstance(node, ast.Match):
                nested += [case.pattern.lineno for case in node.cases]
            yield node, _first(node), (min(nested) - 1 if nested else node.end_lineno)


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def missed_statements(path: Path, executed: set[int]) -> list[int]:
    """First lines of the statements of ``path`` that hold bytecode and
    never ran, outside the pragma."""
    source = path.read_text()
    text = source.splitlines()
    tree = ast.parse(source)
    bytecode = _code_lines(compile(source, str(path), "exec"))
    # each line belongs to the innermost statement whose header, or whose
    # whole span for a simple statement, covers it
    owner: dict[int, int] = {}
    excluded: set[int] = set()
    for node, first, header_end in sorted(_statements(tree), key=lambda s: s[1]):
        header = range(first, header_end + 1)
        owner.update(dict.fromkeys(header, first))
        if any(PRAGMA in text[line - 1] for line in header):
            excluded.update(range(first, node.end_lineno + 1))
    holds = {owner[line] for line in bytecode if line in owner}
    ran = {owner[line] for line in executed if line in owner}
    return sorted(holds - ran - excluded)


def main(argv: list[str]) -> int:
    root = os.path.realpath(PACKAGE) + os.sep
    # the lines that ran, keyed by co_filename, or None for a file outside
    # the package, whose frames the collector does not trace
    executed: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in executed:
            inside = os.path.realpath(filename).startswith(root)
            executed[filename] = set() if inside else None
        if executed[filename] is None:
            return None
        executed[filename].add(frame.f_lineno)
        return local

    if "hprlp" in sys.modules:
        raise SystemExit("hprlp was imported before the collector started")
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", str(Path(__file__).resolve().parent)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran: dict[str, set[int]] = {}
    for filename, lines in executed.items():
        if lines is not None:
            ran.setdefault(os.path.realpath(filename), set()).update(lines)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in missed_statements(path, ran.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(PACKAGE.parent.parent)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} statement(s) of src/hprlp never ran")
    if status != 0:
        return 2
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
