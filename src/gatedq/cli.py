"""Command-line front end for the gated-queue analysis toolkit.

Subcommands:

  analyze-mg   solve the stage-length moment system for gated M/M/inf
               (exponential service via --mu) and write a JSON report
  analyze-gi   solve the customers-per-stage system for synchronized gated
               GI/M/inf and write a JSON report plus a pmf CSV
  simulate     run either simulator and write a CSV trace plus a JSON
               stats block
  dominance    write the diagonal-dominance report for a truncated system
  compare      run the analytic pipeline and the simulator with matched
               parameters and write a joint CSV (grid point, analytic,
               simulated, SE)

Exit codes: 0 success, 1 invalid configuration (machine-readable JSON on
stderr), 2 out-of-regime refusal, 3 unconverged truncation ladder.  On exit
3 analyze-mg and analyze-gi still write their JSON report (analyze-gi skips
its pmf CSV); compare writes nothing and runs no simulation.  compare
--figure mean-length pins the truncation at --order and never exits 3.

A JSON file passed as --config overrides any flags it names.  The default
output directory is $GATEDQ_OUTPUT_DIR, falling back to the working
directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import linsys, mgqueue, giqueue, simulator
from .distributions import ArrivalDistribution, ServiceDistribution
from .errors import OutOfRegimeError, UnconvergedError


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _write_text(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_json(path: str, obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: str, header, rows) -> str:
    """Plain CSV, repr-formatted floats so values round-trip exactly."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return _write_text(path, "\n".join(lines) + "\n")


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"code": code, "message": message}}, sort_keys=True) + "\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="gatedq", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", parser_class=_Parser)

    def common(sp):
        sp.add_argument("--config", help="JSON file whose keys override flags")
        sp.add_argument("--out", help="output directory")

    def arrival_flags(sp):
        sp.add_argument("--rho", type=float,
                        help="Poisson shortcut: rate rho with mu = 1")
        sp.add_argument("--arrival-rate", type=float,
                        help="Poisson interarrival rate")
        sp.add_argument("--deterministic", type=float,
                        help="deterministic interarrival spacing")
        sp.add_argument("--mu", type=float, help="service rate")

    mg = sub.add_parser("analyze-mg", help="stage-length moments, gated M/M/inf")
    mg.add_argument("--lambda", dest="lam", type=float, help="arrival rate")
    mg.add_argument("--mu", type=float, help="exponential service rate")
    mg.add_argument("--order", type=int, default=10)
    mg.add_argument("--tol", type=float, default=1e-8)
    mg.add_argument("--n-max", type=int, default=None)
    mg.add_argument("--assembly", choices=["auto", "transformed", "general"],
                    default="auto")
    common(mg)

    gi = sub.add_parser("analyze-gi", help="customers per stage, gated GI/M/inf")
    arrival_flags(gi)
    gi.add_argument("--order", type=int, default=25)
    gi.add_argument("--tol", type=float, default=1e-8)
    gi.add_argument("--n-max", type=int, default=None)
    gi.add_argument("--override", action="store_true",
                    help="assemble outside the light-traffic region")
    common(gi)

    sim = sub.add_parser("simulate", help="simulate either gate mechanism")
    sim.add_argument("--model", choices=["mg", "gi"], required=True)
    sim.add_argument("--lambda", dest="lam", type=float, help="M/G arrival rate")
    arrival_flags(sim)
    sim.add_argument("--stages", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=12345)
    sim.add_argument("--burn-in", type=int, default=1000)
    sim.add_argument("--bins", type=int, default=64)
    sim.add_argument("--column", choices=["active", "total"], default="active")
    common(sim)

    dom = sub.add_parser("dominance", help="diagonal-dominance report")
    dom.add_argument("--system", choices=["mg", "gi"], required=True)
    dom.add_argument("--lambda", dest="lam", type=float, help="M/G arrival rate")
    arrival_flags(dom)
    dom.add_argument("--order", type=int, default=25)
    dom.add_argument("--tail-cutoff", type=int, default=None)
    dom.add_argument("--assembly", choices=["auto", "transformed", "general"],
                     default="auto")
    dom.add_argument("--override", action="store_true")
    common(dom)

    cmp_ = sub.add_parser("compare", help="analytic vs simulated, joint CSV")
    cmp_.add_argument("--figure", required=True,
                      choices=["moments", "density", "mean-length", "pmf"])
    cmp_.add_argument("--lambda", dest="lam", type=float, help="M/G arrival rate")
    arrival_flags(cmp_)
    cmp_.add_argument("--rho-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                      help="comma-separated rho grid for --figure mean-length")
    cmp_.add_argument("--order", type=int, default=None)
    cmp_.add_argument("--tol", type=float, default=1e-8)
    cmp_.add_argument("--stages", type=int, default=None)
    cmp_.add_argument("--seed", type=int, default=12345)
    cmp_.add_argument("--burn-in", type=int, default=1000)
    cmp_.add_argument("--bins", type=int, default=64)
    common(cmp_)
    return p


def _apply_config_file(args: argparse.Namespace) -> argparse.Namespace:
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        if not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} is not a flag of "
                              f"{args.subcommand}")
        setattr(args, attr, value)
    return args


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} is required for {args.subcommand}")


# (attribute, rejects, requirement), checked in this order; None passes.
_LIMITS = (
    ("order", lambda v: v < 4, "be >= 4"),
    ("tol", lambda v: not 0.0 < v < 1.0, "lie in (0, 1)"),
    ("stages", lambda v: v < 1, "be >= 1"),
    ("burn_in", lambda v: v < 0, "be >= 0"),
) + tuple((rate, lambda v: v <= 0, "be positive")
          for rate in ("lam", "mu", "rho", "arrival_rate", "deterministic"))


def validate_config(args) -> None:
    """Rates positive, order >= 4, tol in (0, 1), stages >= 1, burn-in >= 0."""
    for attr, rejects, requirement in _LIMITS:
        v = getattr(args, attr, None)
        if v is not None and rejects(v):
            raise ConfigError(f"{attr.replace('_', '-')} must {requirement}, "
                              f"got {v}")


def _outdir(args) -> str:
    out = getattr(args, "out", None) or os.environ.get("GATEDQ_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _mg_model(args, lam: Optional[float] = None) -> mgqueue.MgModel:
    """Gated M/M/inf from --lambda (or the given rate) and --mu."""
    if lam is None:
        _require(args, "lam")
        lam = args.lam
    _require(args, "mu")
    return mgqueue.MgModel(lam, ServiceDistribution.exponential(args.mu))


def _gi_model(args) -> giqueue.GiModel:
    if args.rho is not None:
        if args.arrival_rate is not None or args.deterministic is not None:
            raise ConfigError("--rho is a shortcut; do not combine it with "
                              "--arrival-rate or --deterministic")
        mu = 1.0 if args.mu is None else args.mu
        return giqueue.GiModel(ArrivalDistribution.poisson(args.rho * mu), mu)
    if args.arrival_rate is not None:
        arrivals = ArrivalDistribution.poisson(args.arrival_rate)
    elif args.deterministic is not None:
        arrivals = ArrivalDistribution.deterministic(args.deterministic)
    else:
        raise ConfigError("specify arrivals via --rho, --arrival-rate, or "
                          "--deterministic")
    _require(args, "mu")
    return giqueue.GiModel(arrivals, args.mu)


def _simulate(model, stages: int, seed: int, burn_in: int) -> simulator.StageTrace:
    """Run the simulator of the model's gate mechanism."""
    if isinstance(model, mgqueue.MgModel):
        return simulator.simulate_mg(model.lam, model.service, stages,
                                     seed=seed, burn_in=burn_in)
    return simulator.simulate_gi(model.arrivals, model.mu, stages, seed=seed,
                                 burn_in=burn_in)


def _refuse_unconverged(sol, consequence: str) -> None:
    if not sol.converged:
        raise UnconvergedError(
            f"truncation ladder did not converge; {consequence}")


def _run_analyze_mg(args) -> int:
    sol = mgqueue.solve_stage_moments(_mg_model(args), order=args.order,
                                      tol=args.tol, n_max=args.n_max,
                                      assembly=args.assembly)
    path = write_json(os.path.join(_outdir(args), "analyze-mg.json"),
                      sol.to_dict())
    print(path)
    print(f"beta1={sol.beta1!r} EK={1.0 + sol.s!r} n_used={sol.n_used} "
          f"converged={sol.converged}")
    _refuse_unconverged(sol, "diagnostics written")
    return 0


def _run_analyze_gi(args) -> int:
    model = _gi_model(args)
    sol = giqueue.solve_factorial_moments(model, order=args.order, tol=args.tol,
                                          n_max=args.n_max,
                                          override=args.override)
    out = _outdir(args)
    report = write_json(os.path.join(out, "analyze-gi.json"), sol.to_dict())
    print(report)
    _refuse_unconverged(sol, "diagnostics written")
    # Stop once the rows hold all but 1e-10 of the solution's own total mass,
    # which misses 1 by the defect of the identity phi(0) = 0.
    mass = giqueue.pmf_total_mass(sol, model)
    rows = []
    cum = 0.0
    for i in range(1, 100001):
        pi = giqueue.stationary_pmf(sol, model, i)
        rows.append((i, pi))
        cum += pi
        if mass - cum < 1e-10 and i >= 10:
            break
    path = write_csv(os.path.join(out, "analyze-gi-pmf.csv"),
                     ["i", "pi"], rows)
    print(path)
    print(f"EK={sol.x[1]!r} n_used={sol.n_used} defect={sol.defect!r}")
    return 0


def _run_simulate(args) -> int:
    _require(args, "stages")
    model = _mg_model(args) if args.model == "mg" else _gi_model(args)
    trace = _simulate(model, args.stages, args.seed, args.burn_in)
    out = _outdir(args)
    rows = [(i, float(trace.y[i]), int(trace.k[i]), bool(trace.waiting[i]),
             float(trace.m[i])) for i in range(len(trace))]
    trace_path = write_csv(os.path.join(out, f"trace-{args.model}.csv"),
                           ["n", "y", "k", "waiting_phase", "m"], rows)
    try:
        stats = simulator.empirical_stats(trace, bins=args.bins,
                                          column=args.column)
    except Exception as exc:
        raise ConfigError(f"statistics unavailable: {exc}")
    stats_path = write_json(os.path.join(out, f"stats-{args.model}.json"),
                            stats.to_dict())
    print(trace_path)
    print(stats_path)
    return 0


def _run_dominance(args) -> int:
    if args.system == "mg":
        oracle = mgqueue.moment_oracle(_mg_model(args), assembly=args.assembly)
    else:
        oracle = giqueue.factorial_oracle(_gi_model(args),
                                          override=args.override)
    report = linsys.dominance_report(oracle, order=args.order,
                                     tail_cutoff=args.tail_cutoff)
    path = write_json(os.path.join(_outdir(args), "dominance.json"),
                      report.to_dict())
    print(path)
    print(f"satisfied={report.satisfied} marginal={report.marginal} "
          f"sigma={report.sigma!r}")
    return 0


# ----------------------------------------------------------------- compare ----
# A figure's points are (first-column label, model, seed) triples; its rows
# function turns one point's solution and trace into CSV rows.

def _single_point(build):
    return lambda args: [(None, build(args), args.seed)]


def _rho_grid_points(args):
    _require(args, "mu")
    try:
        grid = [float(tok) for tok in args.rho_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --rho-grid: {exc}")
    if not grid or any(not 0.0 < r < 1.0 for r in grid):
        raise ConfigError("--rho-grid values must lie in (0, 1)")
    return [(rho, _mg_model(args, lam=rho * args.mu), args.seed + idx)
            for idx, rho in enumerate(grid)]


def _moment_rows(args, order, label, model, sol, trace):
    act = trace.m[trace.burn_in:]
    powered = ((i, act ** i) for i in range(2, order + 2) if i in sol.beta)
    return [(i, sol.beta[i], float(p.mean()), simulator._batch_se(p))
            for i, p in powered]


def _density_rows(args, order, label, model, sol, trace):
    y_max = -math.log(1e-10) / args.mu
    stats = simulator.empirical_stats(trace, bins=args.bins, y_max=y_max,
                                      column="active")
    edges = stats.bin_edges
    lo, hi = edges[:-1], edges[1:]
    centers = 0.5 * (lo + hi)
    analytic = mgqueue.stationary_density(sol, model, centers)
    act = trace.m[trace.burn_in:]
    width = edges[1] - edges[0]
    return [(float(centers[b]), float(analytic[b]), float(stats.histogram[b]),
             simulator._batch_se(((act >= lo[b]) & (act < hi[b])).astype(float)
                                 / width))
            for b in range(args.bins)]


def _mean_length_rows(args, order, rho, model, sol, trace):
    act = trace.m[trace.burn_in:]
    return [(rho, sol.beta1, float(act.mean()), simulator._batch_se(act))]


def _pmf_rows(args, order, label, model, sol, trace):
    stats = simulator.empirical_stats(trace, bins=args.bins, column="active")
    return [(int(i), giqueue.stationary_pmf(sol, model, int(i)), float(p),
             float(se))
            for i, p, se in zip(stats.k_values, stats.k_pmf, stats.k_se)]


# figure -> (first column, default order, default stages, points, rows)
_FIGURES = {
    "moments": ("moment_order", 10, 100000, _single_point(_mg_model),
                _moment_rows),
    "density": ("y", 10, 100000, _single_point(_mg_model), _density_rows),
    "mean-length": ("rho", 10, 10000, _rho_grid_points, _mean_length_rows),
    "pmf": ("i", 25, 100000, _single_point(_gi_model), _pmf_rows),
}


def _run_compare(args) -> int:
    first, order, stages, points, rows_of = _FIGURES[args.figure]
    out = _outdir(args)
    order = args.order or order
    stages = args.stages or stages
    # mean-length pins the truncation at --order on purpose: the sweep
    # reproduces the divergence of the truncated series for large rho, so
    # the ladder must not grow the system, and its result is never refused.
    pinned = args.figure == "mean-length"
    rows = []
    for label, model, seed in points(args):
        solve = (mgqueue.solve_stage_moments
                 if isinstance(model, mgqueue.MgModel)
                 else giqueue.solve_factorial_moments)
        sol = solve(model, order=order, tol=args.tol,
                    n_max=order if pinned else None)
        if not pinned:
            _refuse_unconverged(sol, "nothing written")
        trace = _simulate(model, stages, seed, args.burn_in)
        rows.extend(rows_of(args, order, label, model, sol, trace))
    path = write_csv(os.path.join(out, f"compare-{args.figure}.csv"),
                     [first, "analytic", "simulated", "se"], rows)
    print(path)
    return 0


_DISPATCH = {
    "analyze-mg": _run_analyze_mg,
    "analyze-gi": _run_analyze_gi,
    "simulate": _run_simulate,
    "dominance": _run_dominance,
    "compare": _run_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ConfigError("a subcommand is required (see --help)")
        args = _apply_config_file(args)
        validate_config(args)
        return _DISPATCH[args.subcommand](args)
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 1
    except OutOfRegimeError as exc:
        _emit_error("out_of_regime", str(exc))
        return 2
    except UnconvergedError as exc:
        _emit_error("unconverged", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
