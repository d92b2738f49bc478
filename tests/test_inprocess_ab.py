"""tools/inprocess_ab.py summarizes alternating in-process rounds."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "inprocess_ab.py"
_SPEC = importlib.util.spec_from_file_location("inprocess_ab", _PATH)
inprocess_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inprocess_ab)


def samples(parent, change):
    """Round r holds the op times parent[r] and change[r]; the change side
    runs first in odd rounds, as the tool runs them."""
    out = []
    for r, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, ms in (sides if r % 2 == 0 else sides[::-1]):
            out.append({"round": r, "side": side, "cpu_ms": ms})
    return out


def test_round_medians_and_their_ratio():
    parent = [[3.0, 2.0, 10.0], [2.5, 2.1, 2.2], [2.4, 9.0, 2.4, 2.0]]
    change = [[1.5, 1.0, 1.2], [1.0, 1.1, 8.0], [1.6, 1.8]]
    out = inprocess_ab.summarize(samples(parent, change))
    assert [r["parent_ms"] for r in out["rounds"]] == [3.0, 2.2, 2.4]
    assert [r["change_ms"] for r in out["rounds"]] == pytest.approx(
        [1.2, 1.1, 1.7])
    assert out["parent_median_ms"] == 2.4
    assert out["change_median_ms"] == 1.2
    assert out["ratio"] == pytest.approx(0.5)
    assert out["ratio_min"] == pytest.approx(1.2 / 3.0)
    assert out["ratio_max"] == pytest.approx(1.7 / 2.4)
    assert out["change_faster_rounds"] == out["n_rounds"] == 3


def test_a_slower_change_wins_no_round_and_ties_count_for_neither():
    parent = [[2.0, 2.0], [2.0], [2.0, 2.0, 2.0]]
    change = [[2.2, 2.4], [2.0], [2.5, 2.1, 2.3]]
    out = inprocess_ab.summarize(samples(parent, change))
    assert out["change_faster_rounds"] == 0
    assert out["ratio"] == pytest.approx(2.3 / 2.0)
    assert [r["ratio"] for r in out["rounds"]] == pytest.approx(
        [1.15, 1.0, 1.15])
