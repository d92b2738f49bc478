"""tools/uncovered.py lists the executable lines a run never executes."""

import importlib.util
import pathlib
import sys

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "uncovered.py"
_SPEC = importlib.util.spec_from_file_location("uncovered", _PATH)
uncovered = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uncovered)

TOY = '''"""A toy module."""
import math


def f(x):
    """Docstrings, blank lines and comments are not executable."""
    if x:
        return math.sqrt(x)
    # A comment.
    return 0.0


class C:
    def g(self):
        return [y for y in range(3)]
'''


def test_executable_lines_take_nested_code_and_skip_the_rest(tmp_path):
    toy = tmp_path / "toy.py"
    toy.write_text(TOY)
    assert uncovered.executable_lines(toy) == {1, 2, 5, 7, 8, 10, 13, 14, 15}


def test_the_lines_a_traced_run_skips_are_listed(tmp_path):
    toy = tmp_path / "pkg" / "toy.py"
    toy.parent.mkdir()
    toy.write_text(TOY)
    hits = set()
    before = sys.gettrace()
    sys.settrace(uncovered.tracer(toy.parent, hits))
    try:
        spec = importlib.util.spec_from_file_location("toy", toy)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.f(0)
    finally:
        sys.settrace(before)
    assert hits and {name for name, _ in hits} == {str(toy)}
    assert uncovered.unrun(hits, toy.parent) == [(toy, 8), (toy, 15)]
