"""tools/bench_pairs.py summarizes alternating benchmark pairs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}],
    "per_layer": [{"name": "linsys.rungs", "better": "lower"}]}


def run(side, seed, failed=0, **metrics):
    return {"side": side, "workload": "w", "seed": seed,
            "result": {"failed": failed, "correct": not failed,
                       "metrics": {k: {"value": v}
                                   for k, v in metrics.items()}}}


def pairs(parent, change):
    """Runs of one workload: pair i holds parent[i] and change[i], dicts of
    metric values."""
    return [r for i, (p, c) in enumerate(zip(parent, change))
            for r in (run("parent", i, **p), run("change", i, **c))]


def test_a_gain_past_the_bound_is_named():
    parent = [{"op_p50_ms": 4.0 + 0.1 * i, "ops_per_s": 200.0 + i}
              for i in range(10)]
    change = [{"op_p50_ms": 2.5 + 0.1 * i, "ops_per_s": 330.0 + i}
              for i in range(10)]
    out = bench_pairs.summarize(pairs(parent, change), "w", SPEC)
    for name in ("op_p50_ms", "ops_per_s"):
        row = out[name]
        assert row["verdict"] == "better than bound", name
        assert row["change_better_pairs"] == row["pairs"] == 10
    assert out["op_p50_ms"]["relative_change"] == pytest.approx(
        (2.95 - 4.45) / 4.45)
    assert out["runs_failed"] == {"parent": 0, "change": 0}
    assert out["all_correct"]


def test_a_regression_past_the_bound_is_named():
    parent = [{"op_p50_ms": 4.0 + 0.01 * i, "peak_rss_mb": 38.0}
              for i in range(10)]
    change = [{"op_p50_ms": 5.5 + 0.01 * i, "peak_rss_mb": 39.0}
              for i in range(10)]
    out = bench_pairs.summarize(pairs(parent, change), "w", SPEC)
    assert out["op_p50_ms"]["verdict"] == "worse than bound"
    assert out["op_p50_ms"]["change_better_pairs"] == 0
    # +2.6% RSS is inside its 5% bound.
    assert out["peak_rss_mb"]["verdict"] == "within bound"


def test_a_spread_parent_leaves_the_verdict_unresolved():
    parent = [{"op_p50_ms": v} for v in (1.0, 9.0, 1.0, 9.0, 5.0)]
    change = [{"op_p50_ms": 1.0} for _ in parent]
    out = bench_pairs.summarize(pairs(parent, change), "w", SPEC)
    row = out["op_p50_ms"]
    assert row["parent_relative_iqr"] > row["bound"]
    assert row["verdict"] == "unresolved"


def test_failed_runs_and_ops_are_counted_and_unbounded_metrics_get_no_verdict():
    runs = pairs([{"linsys.rungs": 2}] * 3, [{"linsys.rungs": 2}] * 3)
    runs[1]["result"]["failed"] = 1
    runs[1]["result"]["correct"] = False
    # Seed 3's change run exited nonzero, so seed 3 makes no pair.
    runs.append(run("parent", 3, **{"linsys.rungs": 2}))
    runs.append({"side": "change", "workload": "w", "seed": 3,
                 "result": {"error": "exit 1: []"}})
    out = bench_pairs.summarize(runs, "w", SPEC)
    assert out["runs_failed"] == {"parent": 0, "change": 1}
    assert out["ops_failed"] == {"parent": 0, "change": 1}
    assert not out["all_correct"]
    assert out["linsys.rungs"]["pairs"] == 3
    assert "verdict" not in out["linsys.rungs"]
