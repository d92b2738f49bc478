"""tools/inprocess_ab.py summarizes alternating in-process rounds."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "inprocess_ab.py"
_SPEC = importlib.util.spec_from_file_location("inprocess_ab", _PATH)
inprocess_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inprocess_ab)


def samples(parent, change, parent_wall=None, change_wall=None):
    """Round r holds the op CPU times parent[r] and change[r], and the wall
    times parent_wall[r] and change_wall[r] (by default the CPU times); the
    change side runs first in odd rounds, as the tool runs them."""
    out = []
    for r, (p, c, pw, cw) in enumerate(zip(parent, change,
                                           parent_wall or parent,
                                           change_wall or change)):
        sides = [("parent", p, pw), ("change", c, cw)]
        for side, ms, wall in (sides if r % 2 == 0 else sides[::-1]):
            out.append({"round": r, "side": side, "cpu_ms": ms,
                        "wall_ms": wall})
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


def test_wall_time_is_compared_beside_cpu_time():
    # The same CPU time on both sides, but the change waits longer in each
    # op: only the wall comparison sees it.
    cpu = [[2.0, 2.0, 2.0]] * 4
    parent_wall = [[2.1, 2.2, 2.1], [2.2, 2.1, 2.1], [2.1, 2.1], [2.3, 2.2]]
    change_wall = [[2.4, 2.5, 2.4], [2.4, 2.4, 2.6], [2.5, 2.3], [2.5, 2.6]]
    out = inprocess_ab.summarize(samples(cpu, cpu, parent_wall, change_wall))
    assert out["ratio"] == 1.0 and out["change_faster_rounds"] == 0
    wall = out["wall"]
    assert [r["parent_ms"] for r in wall["rounds"]] == pytest.approx(
        [2.1, 2.1, 2.1, 2.25])
    assert [r["change_ms"] for r in wall["rounds"]] == pytest.approx(
        [2.4, 2.4, 2.4, 2.55])
    assert wall["parent_median_ms"] == pytest.approx(2.1)
    assert wall["change_median_ms"] == pytest.approx(2.4)
    assert wall["ratio"] == pytest.approx(2.4 / 2.1)
    assert wall["ratio_min"] == pytest.approx(2.55 / 2.25)
    assert wall["ratio_max"] == pytest.approx(2.4 / 2.1)
    assert wall["change_faster_rounds"] == 0 and wall["n_rounds"] == 4
