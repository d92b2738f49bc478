"""One closed-loop run of one workload; started by run.py, never by hand.

The process is the single caller: it issues the next op only when the last
has finished, collects garbage between ops outside the timed region, and
writes artifacts into a temporary directory of its own under .bench_out/.
Op times are wall time net of hypervisor steal (hostclock.py).  The first
`warmup` ops are checked but not timed.  The loop ends once the
timed ops add up to --seconds and at least `min_ops` of them ran (or after
MAX_OPS ops).  The last line of stdout is a JSON object with correct,
attempted, failed and the raw metric values.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import hostclock

ROOT = Path(__file__).resolve().parent.parent
# A run that has not finished by then stops early, so the launcher's limit
# of 180 s holds even when ops fail fast or never reach --seconds.
DEADLINE_S = 120.0


def closed_loop(workload, seconds: float, tracer, max_ops: int,
                cpu: int) -> dict:
    attempted = failed = 0
    correct = True
    wall, cpu_s, timed = [], [], []
    start = time.perf_counter()
    op = 0
    while True:
        inputs = workload.inputs(op)
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op)
        t0, c0 = hostclock.net_now(cpu), time.process_time()
        try:
            results = workload.run(inputs)
            ok = True
        except Exception:
            ok = False
            traceback.print_exc()
        t1, c1 = hostclock.net_now(cpu), time.process_time()
        if tracer is not None:
            tracer.end_op()
        attempted += 1
        if not ok:
            failed += 1
        else:
            try:
                problems = workload.check(inputs, results, first=op == 0)
            except Exception:
                problems = [traceback.format_exc()]
            for p in problems:
                print(f"op {op}: {p}", file=sys.stderr)
            correct = correct and not problems
            if op >= workload.warmup:
                wall.append(t1 - t0)
                cpu_s.append(c1 - c0)
                timed.append(op)
        op += 1
        if ((sum(wall) >= seconds and len(wall) >= workload.min_ops)
                or op >= max_ops
                or time.perf_counter() - start > DEADLINE_S):
            break
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "wall": wall, "cpu": cpu_s, "timed": timed}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    cpu = hostclock.pin()

    import gatedq
    here = (ROOT / "src" / "gatedq").resolve()
    if Path(gatedq.__file__).resolve().parent != here:
        print(f"gatedq imported from {gatedq.__file__}, not {here}",
              file=sys.stderr)
        return 1
    import spans
    import workloads

    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        run = closed_loop(workload, args.seconds, tracer, workloads.MAX_OPS,
                          cpu)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wall, cpu_s, timed = run.pop("wall"), run.pop("cpu"), run.pop("timed")
    if len(timed) < workload.min_ops:
        print(f"only {len(timed)} timed ops completed", file=sys.stderr)
        return 1
    ops_per_s = len(wall) / sum(wall)
    if tracer is None:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": median(wall) * 1e3,
            "op_cpu_ms": median(cpu_s) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values = tracer.layer_metrics(timed[:workload.min_ops])
        values["trace.ops_per_s"] = ops_per_s
        tracer.write(str(out_root / f"spans-{args.workload}-{args.seed}.jsonl"))
    run["values"] = values
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
