"""Run the benchmark of two checkouts in alternating pairs and summarize it.

    python3 tools/bench_pairs.py PARENT CHANGE --workload user-law \
        --workload analyze --seeds 6001-6010 --out BENCH_name.json

runs `python3 bench/run.py --workload W --seed N --seconds S --trace T`
once in PARENT and once in CHANGE for every seed N and workload W, each run
from its own checkout, which must hold the program and its own bench/.
Pair i runs PARENT first when i is even and CHANGE first when it is odd, so
slow drift of the host does not favour one side.  The workloads of one seed
run before the next seed starts.

The output JSON holds every result line bench/run.py printed (`runs`) and,
per workload and metric, both medians, the relative change of the medians,
how many pairs the change won, and the interquartile range of the parent's
runs.  A metric with a bound in BENCHMARK.json also gets a verdict:
"unresolved" when the parent's relative interquartile range exceeds the
bound, "worse than bound" when the change median is worse than the parent
median by more than the bound, "better than bound" when it is better by
more than the bound, else "within bound".  --claim W:METRIC
checks a claimed gain: the change must win at least nine pairs in ten and
beat the parent median by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from statistics import median, quantiles


def parse_seeds(text: str) -> list:
    """Seeds from a comma-separated list of integers and ranges A-B."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(checkout: pathlib.Path, workload: str, seed: int,
               seconds, trace: int) -> dict:
    """The result object of one bench/run.py run in checkout, or a record of
    its failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        argv += ["--seconds", repr(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        return {"error": f"exit {done.returncode}: "
                         f"{done.stderr.strip().splitlines()[-1:]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def iqr(values: list) -> float:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list, workload: str, spec: dict) -> dict:
    """Medians, pair wins and verdicts of one workload's runs."""
    by_seed = {}
    for r in runs:
        if r["workload"] == workload:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
    sides = ("parent", "change")
    pairs = [p for p in by_seed.values()
             if all("metrics" in p[side] for side in sides)]
    out = {
        "runs_failed": {side: sum("error" in p[side] for p in by_seed.values())
                        for side in sides},
        "ops_failed": {side: sum(p[side]["failed"] for p in pairs)
                       for side in sides},
        "all_correct": all(p[side]["correct"] for p in pairs
                           for side in sides),
    }
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for name in (pairs[0]["parent"]["metrics"] if pairs else ()):
        higher = metrics[name]["better"] == "higher"
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        pm, cm = median(par), median(chg)
        spread = iqr(par) if len(par) > 1 else 0.0
        row = {
            "parent_median": pm,
            "change_median": cm,
            "relative_change": (cm - pm) / pm if pm else None,
            "change_better_pairs": sum((c > p) if higher else (c < p)
                                       for p, c in zip(par, chg)),
            "pairs": len(pairs),
            "parent_iqr": spread,
            "parent_relative_iqr": spread / abs(pm) if pm else None,
        }
        bound = metrics[name].get("bound")
        if bound is not None:
            row["bound"] = bound
            worse = (row["relative_change"] or 0.0) * (-1.0 if higher else 1.0)
            row["verdict"] = (
                "unresolved" if (row["parent_relative_iqr"] or 0.0) > bound
                else "worse than bound" if worse > bound
                else "better than bound" if -worse > bound
                else "within bound")
        out[name] = row
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="e.g. 6001-6010 or 7,8,9")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; bench/run.py's default when left out")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    p.add_argument("--description", default="")
    p.add_argument("--out", type=pathlib.Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                result = bench_once(sides[side], workload, seed,
                                    args.seconds, args.trace)
                runs.append({"side": side, "workload": workload,
                             "seed": seed, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result.get('metrics', result))}",
                      file=sys.stderr, flush=True)

    summary = {w: summarize(runs, w, spec) for w in args.workload}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        row = summary[workload][metric]
        gain = row["change_median"] - row["parent_median"]
        if next(m for m in spec["end_to_end"] + spec["per_layer"]
                if m["name"] == metric)["better"] == "lower":
            gain = -gain
        claim = {"workload": workload, "metric": metric,
                 "change_better_pairs": row["change_better_pairs"],
                 "pairs": row["pairs"],
                 "median_gain_exceeds_parent_iqr": gain > row["parent_iqr"],
                 "met": (10 * row["change_better_pairs"] >= 9 * row["pairs"]
                         and gain > row["parent_iqr"])}
    record = {"description": args.description, "workloads": args.workload,
              "seeds": args.seeds, "seconds": args.seconds,
              "trace": args.trace, "claim": claim, "summary": summary,
              "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
