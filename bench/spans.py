"""In-memory span tracer that wraps gatedq's public functions from outside.

A span is [name, start, end, parent, op]: perf_counter times in seconds,
the index of the enclosing span (or None) and the op it belongs to.  Spans
and counters are recorded only between begin_op and end_op, so the
benchmark's own checks, which call gatedq too, leave no trace.

Self time of a span is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import defaultdict
from statistics import median


class _CountingModule:
    """Stands in for a module inside one gatedq module; counts quad calls."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def quad(self, *args, **kwargs):
        self._tracer.count("distributions.quad_calls")
        return self._real.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._counts = defaultdict(lambda: defaultdict(float))
        # Oracle entries are read ~10^5 times per op; a bare attribute keeps
        # counting them cheap, and end_op files the total under the op.
        self.oracle_calls = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self.oracle_calls = 0

    def end_op(self) -> None:
        self.count("linsys.oracle_calls", self.oracle_calls)
        self.op = None

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.op is not None:
            self._counts[self.op][name] += amount

    def _wrap(self, fn, name, before=None, after=None, skip_under=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None or (
                    skip_under and self._stack
                    and self.spans[self._stack[-1]][0] == skip_under):
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, self._wrap(getattr(owner, attr), name, **hooks))

    def _counted_oracle(self, oracle):
        """Copy of a CoefficientOracle whose a and b count their calls."""
        if getattr(oracle.a, "_bench_counted", False):
            return oracle
        inner_a, inner_b = oracle.a, oracle.b

        def a(i, j):
            self.oracle_calls += 1
            return inner_a(i, j)

        def b(i):
            self.oracle_calls += 1
            return inner_b(i)

        a._bench_counted = True
        return dataclasses.replace(oracle, a=a, b=b)

    def install(self) -> None:
        """Wrap the public entry points of every gatedq module."""
        from gatedq import cli, distributions, giqueue, linsys, mgqueue, simulator

        def count_oracle(args, kwargs):
            return (self._counted_oracle(args[0]),) + tuple(args[1:]), kwargs

        def written(args, kwargs, path):
            self.count("cli.bytes_written", os.path.getsize(path))

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "write_csv", "cli.write_csv", after=written)
        self.patch(cli, "write_json", "cli.write_json", after=written)

        self.patch(linsys, "truncate", "linsys.truncate", before=count_oracle,
                   after=lambda a, k, r: self.count("linsys.coefficients",
                                                    r.n * r.n))
        self.patch(linsys, "solve", "linsys.solve")
        self.patch(linsys, "dominance_report", "linsys.dominance_report",
                   before=count_oracle)
        self.patch(linsys, "converge", "linsys.converge", before=count_oracle,
                   after=lambda a, k, r: self.count("linsys.rungs",
                                                    len(r.rungs)))

        self.patch(mgqueue, "solve_stage_moments", "mgqueue.solve_stage_moments")
        self.patch(mgqueue, "stage_count_pmf", "mgqueue.stage_count_pmf")
        # The pmf quadrature calls the density once per node; that time is
        # the pmf's, not the density's.
        self.patch(mgqueue, "stationary_density", "mgqueue.stationary_density",
                   skip_under="mgqueue.stage_count_pmf")

        self.patch(giqueue, "solve_factorial_moments",
                   "giqueue.solve_factorial_moments")
        self.patch(giqueue, "stationary_pmf", "giqueue.stationary_pmf",
                   after=lambda a, k, r: self.count("giqueue.pmf_rows"))

        self.patch(distributions, "min_moment", "distributions.min_moment")
        distributions.integrate = _CountingModule(distributions.integrate, self)
        gamma = distributions.GammaTable.gamma

        def counted_gamma(table, m, k):
            self.count("distributions.gamma_calls")
            if (m, k) in table._cache:
                self.count("distributions.gamma_hits")
            return gamma(table, m, k)

        distributions.GammaTable.gamma = counted_gamma
        self.patch(distributions.ServiceDistribution, "sample",
                   "distributions.sample")
        self.patch(distributions.ArrivalDistribution, "sample",
                   "distributions.sample")

        def stages(kind):
            def after(args, kwargs, result):
                self.count(f"simulator.{kind}_stages", len(result))
            return after

        self.patch(simulator, "simulate_mg", "simulator.simulate_mg",
                   after=stages("mg"))
        self.patch(simulator, "simulate_gi", "simulator.simulate_gi",
                   after=stages("gi"))
        self.patch(simulator, "empirical_stats", "simulator.stats")
        self.patch(simulator, "drift_check", "simulator.stats")

    def op_metrics(self, op: int) -> dict:
        """Per-layer metrics of one op, from its spans and counters."""
        total = defaultdict(float)
        own = defaultdict(float)
        children = defaultdict(float)
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        for _, (name, start, end, parent, _) in spans:
            if parent is not None:
                children[parent] += end - start
        for i, (name, start, end, _, _) in spans:
            total[name] += end - start
            own[name] += end - start - children[i]
        c = self._counts[op]
        ms = 1e3

        def per_stage(kind):
            n = c[f"simulator.{kind}_stages"]
            return total[f"simulator.simulate_{kind}"] * 1e6 / n if n else 0.0

        gamma_calls = c["distributions.gamma_calls"]
        return {
            "cli.self_ms": own["cli.main"] * ms,
            "cli.write_csv_ms": total["cli.write_csv"] * ms,
            "cli.write_json_ms": total["cli.write_json"] * ms,
            "cli.bytes_written": c["cli.bytes_written"],
            "linsys.truncate_ms": total["linsys.truncate"] * ms,
            "linsys.coefficients": c["linsys.coefficients"],
            "linsys.oracle_calls": c["linsys.oracle_calls"],
            "linsys.solve_ms": total["linsys.solve"] * ms,
            "linsys.rungs": c["linsys.rungs"],
            "linsys.dominance_ms": total["linsys.dominance_report"] * ms,
            "mgqueue.solve_self_ms": own["mgqueue.solve_stage_moments"] * ms,
            "mgqueue.density_ms": total["mgqueue.stationary_density"] * ms,
            "mgqueue.count_pmf_ms": total["mgqueue.stage_count_pmf"] * ms,
            "giqueue.solve_self_ms": own["giqueue.solve_factorial_moments"] * ms,
            "giqueue.pmf_ms": total["giqueue.stationary_pmf"] * ms,
            "giqueue.pmf_rows": c["giqueue.pmf_rows"],
            "distributions.quad_ms": total["distributions.min_moment"] * ms,
            "distributions.quad_calls": c["distributions.quad_calls"],
            "distributions.gamma_hit_ratio": (
                c["distributions.gamma_hits"] / gamma_calls
                if gamma_calls else 0.0),
            "distributions.sample_ms": total["distributions.sample"] * ms,
            "simulator.mg_us_per_stage": per_stage("mg"),
            "simulator.gi_us_per_stage": per_stage("gi"),
            "simulator.stats_ms": total["simulator.stats"] * ms,
        }

    def layer_metrics(self, ops) -> dict:
        """Median over ops of each per-op metric."""
        rows = [self.op_metrics(op) for op in ops]
        return {name: median(r[name] for r in rows) for name in rows[0]}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
