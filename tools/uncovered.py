"""List the executable lines of src/gatedq that a test run never executes.

    python3 tools/uncovered.py [PYTEST_ARGS ...]

runs pytest in this process on PYTEST_ARGS (by default the tier-1 suite,
tests/, quietly) with a trace function installed through sys.settrace and
threading.settrace, so that threads the tests start are traced too.  It
needs the standard library and pytest only; coverage.py is not required.
A line is executable when a code object compiled from its file lists it in
co_lines(), the code objects nested in functions and classes included.
The tracer is installed before gatedq is imported, so module-level lines
count when the import runs them.

Prints one line per executable line that never ran, as
`module.py:LINE: source`, in file and line order, then their number, and
exits with pytest's exit status.

Tests that run gatedq in a subprocess (the command-line tests that start
`python -m gatedq.cli`, say) are not traced: a line only they reach is
listed as never run.  The run takes about a minute on a 2-core machine,
several times tier-1's own time, since every line of every traced frame
calls back into Python.
"""

from __future__ import annotations

import linecache
import os
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gatedq"


def executable_lines(path) -> set:
    """Line numbers that the code compiled from the file at path lists in
    co_lines(), nested code objects included."""
    path = pathlib.Path(path)
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def tracer(root, hits: set):
    """A trace function that adds (file, line) to hits for every line run
    in a file under the directory root, and traces no other frame."""
    prefix = os.path.realpath(root) + os.sep
    inside = {}

    def local(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, _event, _arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return local if inside[name] else None

    return call


def unrun(hits: set, root) -> list:
    """(path, line) for each executable line of the .py files under root
    that hits, as filled by tracer, does not hold; sorted."""
    ran = {}
    for name, line in hits:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    return [(path, line)
            for path in sorted(pathlib.Path(root).rglob("*.py"))
            for line in sorted(executable_lines(path)
                               - ran.get(os.path.realpath(path), set()))]


def main(argv: list) -> int:
    import pytest

    hits = set()
    trace = tracer(SRC, hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unrun(hits, SRC)
    for path, line in missed:
        source = linecache.getline(str(path), line).strip()
        print(f"{path.relative_to(SRC)}:{line}: {source}")
    print(f"{len(missed)} executable lines of src/gatedq never ran")
    return int(status)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
