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
stderr), 2 out-of-regime refusal, 3 unconverged truncation ladder
(diagnostic artifacts are still written).

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


def _check_positive(args, *names) -> None:
    for name in names:
        v = getattr(args, name, None)
        if v is not None and v <= 0:
            raise ConfigError(f"{name.replace('_', '-')} must be positive, got {v}")


def validate_config(args) -> None:
    """Rates positive, order >= 4, tol in (0, 1), stages >= 1, burn-in >= 0."""
    order = getattr(args, "order", None)
    if order is not None and order < 4:
        raise ConfigError(f"order must be >= 4, got {order}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < 1.0:
        raise ConfigError(f"tol must lie in (0, 1), got {tol}")
    stages = getattr(args, "stages", None)
    if stages is not None and stages < 1:
        raise ConfigError(f"stages must be >= 1, got {stages}")
    burn = getattr(args, "burn_in", None)
    if burn is not None and burn < 0:
        raise ConfigError(f"burn-in must be >= 0, got {burn}")
    _check_positive(args, "lam", "mu", "rho", "arrival_rate", "deterministic",
                    "tol")


def _outdir(args) -> str:
    out = getattr(args, "out", None) or os.environ.get("GATEDQ_OUTPUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _gi_model(args) -> giqueue.GiModel:
    if args.rho is not None:
        if args.arrival_rate is not None or args.deterministic is not None:
            raise ConfigError("--rho is a shortcut; do not combine it with "
                              "--arrival-rate or --deterministic")
        mu = 1.0 if args.mu is None else args.mu
        return giqueue.GiModel(ArrivalDistribution.poisson(args.rho * mu), mu)
    if args.arrival_rate is not None:
        _require(args, "mu")
        return giqueue.GiModel(ArrivalDistribution.poisson(args.arrival_rate),
                               args.mu)
    if args.deterministic is not None:
        _require(args, "mu")
        return giqueue.GiModel(ArrivalDistribution.deterministic(args.deterministic),
                               args.mu)
    raise ConfigError("specify arrivals via --rho, --arrival-rate, or "
                      "--deterministic")


def _run_analyze_mg(args) -> int:
    _require(args, "lam", "mu")
    model = mgqueue.MgModel(args.lam, ServiceDistribution.exponential(args.mu))
    sol = mgqueue.solve_stage_moments(model, order=args.order, tol=args.tol,
                                      n_max=args.n_max, assembly=args.assembly)
    path = write_json(os.path.join(_outdir(args), "analyze-mg.json"),
                      sol.to_dict())
    print(path)
    print(f"beta1={sol.beta1!r} EK={1.0 + sol.s!r} n_used={sol.n_used} "
          f"converged={sol.converged}")
    if not sol.converged:
        _emit_error("unconverged", "truncation ladder did not converge; "
                    "diagnostics written")
        return 3
    return 0


def _run_analyze_gi(args) -> int:
    model = _gi_model(args)
    sol = giqueue.solve_factorial_moments(model, order=args.order, tol=args.tol,
                                          n_max=args.n_max,
                                          override=args.override)
    out = _outdir(args)
    report = write_json(os.path.join(out, "analyze-gi.json"), sol.to_dict())
    print(report)
    if not sol.converged:
        _emit_error("unconverged", "truncation ladder did not converge; "
                    "diagnostics written")
        return 3
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
    if args.model == "mg":
        _require(args, "lam", "mu")
        trace = simulator.simulate_mg(args.lam,
                                      ServiceDistribution.exponential(args.mu),
                                      args.stages, seed=args.seed,
                                      burn_in=args.burn_in)
    else:
        model = _gi_model(args)
        trace = simulator.simulate_gi(model.arrivals, model.mu, args.stages,
                                      seed=args.seed, burn_in=args.burn_in)
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
        _require(args, "lam", "mu")
        model = mgqueue.MgModel(args.lam, ServiceDistribution.exponential(args.mu))
        oracle = mgqueue.moment_oracle(model, assembly=args.assembly)
    else:
        oracle = giqueue.factorial_oracle(_gi_model(args),
                                          override=args.override)
    kwargs = {}
    if args.tail_cutoff is not None:
        kwargs["tail_cutoff"] = args.tail_cutoff
    report = linsys.dominance_report(oracle, order=args.order, **kwargs)
    path = write_json(os.path.join(_outdir(args), "dominance.json"),
                      report.to_dict())
    print(path)
    print(f"satisfied={report.satisfied} marginal={report.marginal} "
          f"sigma={report.sigma!r}")
    return 0


def _run_compare(args) -> int:
    out = _outdir(args)
    if args.figure == "moments":
        return _compare_moments(args, out)
    if args.figure == "density":
        return _compare_density(args, out)
    if args.figure == "mean-length":
        return _compare_mean_length(args, out)
    return _compare_pmf(args, out)


def _compare_moments(args, out: str) -> int:
    _require(args, "lam", "mu")
    order = args.order or 10
    stages = args.stages or 100000
    model = mgqueue.MgModel(args.lam, ServiceDistribution.exponential(args.mu))
    sol = mgqueue.solve_stage_moments(model, order=order, tol=args.tol)
    if not sol.converged:
        _emit_error("unconverged", "moment ladder did not converge")
        return 3
    trace = simulator.simulate_mg(args.lam,
                                  ServiceDistribution.exponential(args.mu),
                                  stages, seed=args.seed, burn_in=args.burn_in)
    act = trace.m[trace.burn_in:]
    rows = []
    for i in range(2, order + 2):
        if i not in sol.beta:
            break
        powered = act ** i
        rows.append((i, sol.beta[i], float(powered.mean()),
                     simulator._batch_se(powered)))
    path = write_csv(os.path.join(out, "compare-moments.csv"),
                     ["moment_order", "analytic", "simulated", "se"], rows)
    print(path)
    return 0


def _compare_density(args, out: str) -> int:
    _require(args, "lam", "mu")
    order = args.order or 10
    stages = args.stages or 100000
    model = mgqueue.MgModel(args.lam, ServiceDistribution.exponential(args.mu))
    sol = mgqueue.solve_stage_moments(model, order=order, tol=args.tol)
    if not sol.converged:
        _emit_error("unconverged", "moment ladder did not converge")
        return 3
    trace = simulator.simulate_mg(args.lam,
                                  ServiceDistribution.exponential(args.mu),
                                  stages, seed=args.seed, burn_in=args.burn_in)
    y_max = -math.log(1e-10) / args.mu
    stats = simulator.empirical_stats(trace, bins=args.bins, y_max=y_max,
                                      column="active")
    act = trace.m[trace.burn_in:]
    width = stats.bin_edges[1] - stats.bin_edges[0]
    rows = []
    for b in range(args.bins):
        lo, hi = stats.bin_edges[b], stats.bin_edges[b + 1]
        center = 0.5 * (lo + hi)
        analytic = float(mgqueue.stationary_density(sol, model, center))
        inside = ((act >= lo) & (act < hi)).astype(float) / width
        rows.append((float(center), analytic, float(stats.histogram[b]),
                     simulator._batch_se(inside)))
    path = write_csv(os.path.join(out, "compare-density.csv"),
                     ["y", "analytic", "simulated", "se"], rows)
    print(path)
    return 0


def _compare_mean_length(args, out: str) -> int:
    _require(args, "mu")
    order = args.order or 10
    stages = args.stages or 10000
    try:
        grid = [float(tok) for tok in args.rho_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --rho-grid: {exc}")
    if not grid or any(not 0.0 < r < 1.0 for r in grid):
        raise ConfigError("--rho-grid values must lie in (0, 1)")
    rows = []
    for idx, rho in enumerate(grid):
        lam = rho * args.mu
        model = mgqueue.MgModel(lam, ServiceDistribution.exponential(args.mu))
        # Fixed truncation order on purpose: this sweep reproduces the
        # divergence of the truncated series for large rho, so the ladder
        # must not be allowed to grow the system.
        sol = mgqueue.solve_stage_moments(model, order=order, n_max=order,
                                          tol=args.tol)
        trace = simulator.simulate_mg(lam, ServiceDistribution.exponential(args.mu),
                                      stages, seed=args.seed + idx,
                                      burn_in=args.burn_in)
        act = trace.m[trace.burn_in:]
        rows.append((rho, sol.beta1, float(act.mean()),
                     simulator._batch_se(act)))
    path = write_csv(os.path.join(out, "compare-mean-length.csv"),
                     ["rho", "analytic", "simulated", "se"], rows)
    print(path)
    return 0


def _compare_pmf(args, out: str) -> int:
    model = _gi_model(args)
    order = args.order or 25
    stages = args.stages or 100000
    sol = giqueue.solve_factorial_moments(model, order=order, tol=args.tol)
    if not sol.converged:
        _emit_error("unconverged", "factorial-moment ladder did not converge")
        return 3
    trace = simulator.simulate_gi(model.arrivals, model.mu, stages,
                                  seed=args.seed, burn_in=args.burn_in)
    stats = simulator.empirical_stats(trace, bins=args.bins, column="active")
    rows = []
    for idx, i in enumerate(stats.k_values):
        rows.append((int(i), giqueue.stationary_pmf(sol, model, int(i)),
                     float(stats.k_pmf[idx]), float(stats.k_se[idx])))
    path = write_csv(os.path.join(out, "compare-pmf.csv"),
                     ["i", "analytic", "simulated", "se"], rows)
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
