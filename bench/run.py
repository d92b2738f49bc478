"""gatedq benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a gatedq checkout; the program is imported from its
src/ directory.  Workloads: analyze, simulate, user-law (see README.md).

The launcher pins itself, and so every process it starts, to one CPU and
measures time net of hypervisor steal (hostclock.py).  It first times
SETUP_REPS fresh interpreters importing gatedq and gatedq.cli, then starts
worker.py as the single closed-loop caller with one BLAS thread.  With
--trace 0 it prints the end-to-end metrics named in BENCHMARK.json; with
--trace 1 the worker wraps gatedq's public functions and the launcher prints
the per-layer metrics, the import ones from `python -X importtime`.
The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

import hostclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
# Every run must end within 180 s; this leaves room for setup and exit.
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def scipy_and_gatedq_ms(importtime: str) -> tuple:
    """Cumulative import times from `-X importtime` output, in ms.

    gatedq is the sum of the top-level gatedq and gatedq.cli entries; scipy
    sums every scipy entry that no other scipy entry encloses.  Entries are
    printed after their children, so walk them backwards to see parents
    first.
    """
    gatedq = scipy = 0.0
    ancestors = []
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        del ancestors[depth:]
        us = float(cumulative)
        if depth == 0 and name in ("gatedq", "gatedq.cli"):
            gatedq += us
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += us
        ancestors.append(name)
    return gatedq / 1e3, scipy / 1e3


def fresh_import(env: dict, importtime: bool, cpu: int) -> tuple:
    """Wall time of one interpreter importing gatedq and gatedq.cli."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", "import gatedq, gatedq.cli"]
    t0 = hostclock.net_now(cpu)
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    wall = hostclock.net_now(cpu) - t0
    if done.returncode != 0:
        sys.exit(f"importing gatedq failed:\n{done.stderr}")
    return wall, done.stderr


def main(argv=None) -> None:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gatedq" / "__init__.py").is_file():
        sys.exit(f"no gatedq source under {ROOT / 'src'}: run the benchmark "
                 "from a gatedq checkout")

    cpu = hostclock.pin()
    env = child_env()
    setup = [fresh_import(env, bool(args.trace), cpu)
             for _ in range(SETUP_REPS)]
    try:
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if worker.returncode != 0:
        sys.exit(f"worker exited {worker.returncode}")
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    values = result.pop("values")
    if args.trace:
        parsed = [scipy_and_gatedq_ms(err) for _, err in setup]
        values["import.gatedq_ms"] = median(g for g, _ in parsed)
        values["import.scipy_ms"] = median(s for _, s in parsed)
        wanted = spec["per_layer"]
    else:
        values["setup_s"] = median(wall for wall, _ in setup)
        wanted = spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                     "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
