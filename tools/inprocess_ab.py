"""Time the ops of one benchmark workload in two checkouts, in process.

    python3 tools/inprocess_ab.py PARENT CHANGE --workload user-law \
        --rounds 6 --ops 100 --seed 1

Each round starts one fresh interpreter in PARENT and one in CHANGE,
alternating which goes first.  Each imports the program from its own src/
and the workload from its own bench/workloads.py (read, never changed),
runs op 0 as a warm-up and checks it with the workload's own check, then
times ops 1..N with time.process_time and time.perf_counter, one
gc.collect() before each op outside the timed region.  Both sides run the
same ops: the inputs of op i depend only on the workload, the seed and i.

CPU time of one process is not disturbed by other processes the way wall
time is, so this resolves shifts of a few percent that alternating
bench/run.py pairs cannot.  Wall time is timed as well, since a change
can move it without moving CPU time: writing a file in place waits on the
file system, which op_p50_ms sees and process_time does not.  The tool is
no substitute for the pairs: it leaves out interpreter start, imports and
peak memory.

The JSON summary printed to stdout holds, per round, each side's median
op CPU time in ms and their ratio change / parent, and over all rounds the
median of each side's round medians, their ratio, the range of the
per-round ratios and how many rounds the change won; under "wall" it holds
the same for wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from statistics import median

# Run by a fresh interpreter in a checkout; argv: workload, seed, ops.
_CHILD = r"""
import gc, json, sys, tempfile, time
import workloads

name, seed, ops = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
with tempfile.TemporaryDirectory() as out:
    w = workloads.WORKLOADS[name](seed, out)
    inputs = w.inputs(0)
    problems = w.check(inputs, w.run(inputs), True)
    cpu_ms, wall_ms = [], []
    for op in range(1, ops + 1):
        inputs = w.inputs(op)
        gc.collect()
        c0, w0 = time.process_time(), time.perf_counter()
        w.run(inputs)
        w1, c1 = time.perf_counter(), time.process_time()
        cpu_ms.append((c1 - c0) * 1e3)
        wall_ms.append((w1 - w0) * 1e3)
print(json.dumps({"problems": problems, "cpu_ms": cpu_ms,
                  "wall_ms": wall_ms}))
"""


def run_side(checkout: pathlib.Path, workload: str, seed: int,
             ops: int) -> dict:
    """The op times of one fresh interpreter in checkout."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([str(checkout / "src"),
                                           str(checkout / "bench")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, workload, str(seed), str(ops)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exit {done.returncode}: "
                 f"{done.stderr.strip().splitlines()[-1:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _compare(samples: list, key: str) -> dict:
    """Per-round and overall medians of the op times under key."""
    rounds = {}
    for s in samples:
        rounds.setdefault(s["round"], {})[s["side"]] = median(s[key])
    per_round = [{"round": r, "parent_ms": sides["parent"],
                  "change_ms": sides["change"],
                  "ratio": sides["change"] / sides["parent"]}
                 for r, sides in sorted(rounds.items())]
    parent = median(r["parent_ms"] for r in per_round)
    change = median(r["change_ms"] for r in per_round)
    ratios = [r["ratio"] for r in per_round]
    return {
        "rounds": per_round,
        "parent_median_ms": parent,
        "change_median_ms": change,
        "ratio": change / parent,
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "change_faster_rounds": sum(r < 1.0 for r in ratios),
        "n_rounds": len(per_round),
    }


def summarize(samples: list) -> dict:
    """The CPU-time comparison of samples, a list of {"round", "side",
    "cpu_ms", "wall_ms"} with one parent and one change entry per round,
    with the wall-time comparison under "wall"."""
    return {**_compare(samples, "cpu_ms"), "wall": _compare(samples, "wall_ms")}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    samples = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(sides[side], args.workload, args.seed, args.ops)
            if result["problems"]:
                sys.exit(f"{side}: the warm-up op is wrong: "
                         f"{result['problems'][:3]}")
            samples.append({"round": r, "side": side,
                            "cpu_ms": result["cpu_ms"],
                            "wall_ms": result["wall_ms"]})
            print(f"round {r} {side}: median "
                  f"{median(result['cpu_ms']):.4f} ms CPU, "
                  f"{median(result['wall_ms']):.4f} ms wall", file=sys.stderr,
                  flush=True)

    record = {"workload": args.workload, "seed": args.seed, "ops": args.ops,
              **summarize(samples)}
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
