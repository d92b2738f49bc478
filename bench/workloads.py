"""The benchmark's workloads: what one op runs and how its outputs are checked.

An op is drawn from the workload seed and the op index alone, so the same
seed gives the same ops in the same order whatever the run length.  Every op
of a workload does an equal amount of work: one draw from each load stratum.
run() is the timed part.  check() runs afterwards, outside the timed region,
and compares every output with the benchmark's own reference computations
(reference.py) or with properties the method must have; it returns a list of
problems, empty when the op is correct.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import io
import json
import os
import random

import numpy as np
from gatedq import cli, giqueue, mgqueue
from gatedq import ArrivalDistribution, GiModel, MgModel, ServiceDistribution

import reference as ref

# Light-traffic load strata, one draw from each per op.  The default ladders
# converge up to M/G rho ~ 0.72 and GI rho ~ 0.65; the program exits 3 from
# rho ~ 0.78 (M/G) and ~ 0.74 (GI Poisson) on, so the top strata stop short.
# Each stratum lies inside one rung of the default ladder (M/G: n = 20 below
# rho 0.36, 40 below 0.59, 80 above; GI Poisson: n = 50 below 0.53, 100
# above), so the work of an op hardly depends on the draw.
MG_STRATA = ((0.05, 0.34), (0.38, 0.57), (0.61, 0.72))
GI_STRATA = ((0.05, 0.28), (0.28, 0.51), (0.55, 0.65))
# user-law draws lam from one stratum: up to lam = 0.4 both laws stop at the
# second rung (n = 8); above it the ladder climbs and op cost doubles.
USER_LAM = (0.1, 0.4)
MU_RANGE = (0.5, 2.0)
# Long enough that simulating and writing traces, not the analytic solves
# inside `compare`, dominate a simulate op.
SIM_STAGES = 20000
DENSITY_POINTS = 64

# Agreement required between gatedq and the references.  The ladders stop at
# a Cauchy gap of 1e-8; the references agree with gatedq to 1e-10 or better
# at every load used (README), so 1e-6 leaves room for the ladder's
# truncation error and still catches any wrong term.
TOL = 1e-6
# Window for simulated means: |mean - reference| <= WINDOW_T * batch SE.
# WINDOW_T is the two-sided t quantile with 19 degrees of freedom for a
# per-check false-failure chance of 5e-7: at most MAX_OPS ops of 9 checks
# each keep the chance for a correct simulator below 1e-3 per run (README).
WINDOW_T = 7.5
MAX_OPS = 200


class OpFailed(RuntimeError):
    """A gatedq command exited with a nonzero code."""


def gatedq(argv) -> None:
    """Run one gatedq command in-process, as the console script would.

    Arguments go through str(), which writes a float in its shortest form
    that reads back to the same value.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"gatedq {' '.join(map(str, argv))} exited {code}")


# --- artifact readers and shared checks --------------------------------------

def read_canonical_json(path: str, problems: list):
    """Load a JSON artifact; record a problem unless it re-serializes exactly."""
    with open(path) as fh:
        text = fh.read()
    obj = json.loads(text)
    if json.dumps(obj, sort_keys=True, indent=2) + "\n" != text:
        problems.append(f"{path}: does not re-serialize byte-identically")
    return obj


def read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def close(problems: list, what: str, got, want, tol: float = TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if not np.all(np.isfinite(got)) or float(err.max()) > tol:
        problems.append(f"{what}: max scaled error {float(np.nanmax(err)):.3g}"
                        f" > {tol:g}")


def within_window(problems: list, what: str, mean: float, se: float,
                  want: float) -> None:
    if not abs(mean - want) <= WINDOW_T * se:
        problems.append(f"{what}: simulated {mean!r} +- {se!r} is more than "
                        f"{WINDOW_T} SE from the reference {want!r}")


def check_gi_pmf(problems: list, out: str, law: np.ndarray) -> None:
    """analyze-gi artifacts against the reference stationary law."""
    report = read_canonical_json(os.path.join(out, "analyze-gi.json"), problems)
    rows = read_csv(os.path.join(out, "analyze-gi-pmf.csv"))
    i = np.array([int(r["i"]) for r in rows])
    pi = np.array([float(r["pi"]) for r in rows])
    if not np.array_equal(i, np.arange(1, len(i) + 1)):
        problems.append(f"{out}: pmf rows are not i = 1, 2, ...")
        return
    if np.any(pi < 0):
        problems.append(f"{out}: negative pmf entries")
    # The writer stops once the missing mass is below 1e-10.
    if not abs(pi.sum() - 1.0) <= report["defect"] + 1e-10:
        problems.append(f"{out}: pmf sums to {pi.sum()!r}, defect "
                        f"{report['defect']!r}")
    n = max(len(pi), len(law))
    tv = 0.5 * np.abs(np.pad(pi, (0, n - len(pi)))
                      - np.pad(law, (0, n - len(law)))).sum()
    if not tv <= TOL:
        problems.append(f"{out}: total variation {tv:.3g} from the reference")
    close(problems, f"{out}: EK", report["EK"],
          law @ np.arange(1, len(law) + 1))


def check_trace(problems: list, path: str, model: str) -> None:
    rows = read_csv(path)
    y = np.array([float(r["y"]) for r in rows])
    m = np.array([float(r["m"]) for r in rows])
    k = np.array([int(r["k"]) for r in rows])
    waiting = np.array([r["waiting_phase"] == "true" for r in rows])
    if np.any(k < 1):
        problems.append(f"{path}: k < 1")
    if np.any(y < m):
        problems.append(f"{path}: y < m")
    if model == "mg" and not np.array_equal(waiting, y > m):
        problems.append(f"{path}: waiting_phase differs from y > m")


# --- workloads ----------------------------------------------------------------

class Workload:
    """One closed-loop workload; subclasses define draw, run and check."""

    warmup = 1
    # The traced run reports per-layer medians over the first min_ops timed
    # ops, and the loop runs at least that many, so counts repeat exactly.
    min_ops = 5

    def __init__(self, seed: int, out: str):
        self.seed = seed
        self.out = out

    def inputs(self, op: int) -> dict:
        return self.draw(random.Random(f"{self.name}:{self.seed}:{op}"))

    def stratum_dirs(self) -> list:
        return [os.path.join(self.out, f"s{s}") for s in range(len(MG_STRATA))]


class Analyze(Workload):
    """Linear-system and reconstruction layers; the simulator is idle."""

    name = "analyze"

    def draw(self, rng):
        return {"strata": [
            {"rho_mg": rng.uniform(*mg), "mu": rng.uniform(*MU_RANGE),
             "rho_gi": rng.uniform(*gi), "mu_det": rng.uniform(*MU_RANGE)}
            for mg, gi in zip(MG_STRATA, GI_STRATA)]}

    def run(self, inputs):
        results = []
        for s, d in zip(inputs["strata"], self.stratum_dirs()):
            lam, mu = s["rho_mg"] * s["mu"], s["mu"]
            gatedq(["analyze-mg", "--lambda", lam, "--mu", mu, "--out", d])
            gatedq(["analyze-gi", "--rho", s["rho_gi"],
                    "--out", os.path.join(d, "poisson")])
            gatedq(["analyze-gi", "--deterministic",
                    1.0 / (s["rho_gi"] * s["mu_det"]),
                    "--mu", s["mu_det"],
                    "--out", os.path.join(d, "deterministic")])
            gatedq(["dominance", "--system", "mg", "--lambda", s["rho_mg"],
                    "--mu", "1.0", "--out", os.path.join(d, "dom-mg")])
            gatedq(["dominance", "--system", "gi", "--rho", s["rho_gi"],
                    "--out", os.path.join(d, "dom-gi")])
            model = MgModel(lam, ServiceDistribution.exponential(mu))
            sol = mgqueue.solve_stage_moments(model)
            grid = np.linspace(0.0, 10.0 / mu, DENSITY_POINTS)
            results.append({
                "grid": grid,
                "density": mgqueue.stationary_density(sol, model, grid),
                "pmf": [mgqueue.stage_count_pmf(sol, model, k)
                        for k in (1, 2, 3)]})
        return results

    def check(self, inputs, results, first):
        problems = []
        for s, r, d in zip(inputs["strata"], results, self.stratum_dirs()):
            lam, mu = s["rho_mg"] * s["mu"], s["mu"]
            fp = ref.KernelFixedPoint(lam, ref.exponential_law(mu))
            rep = read_canonical_json(os.path.join(d, "analyze-mg.json"),
                                      problems)
            close(problems, f"{d}: beta1", rep["beta1"], fp.beta1)
            close(problems, f"{d}: EK", rep["EK"], fp.mean_k)
            close(problems, f"{d}: density", r["density"], fp.density(r["grid"]))
            close(problems, f"{d}: M/G pmf", r["pmf"],
                  [fp.pmf(k) for k in (1, 2, 3)])

            rho = s["rho_gi"]
            check_gi_pmf(problems, os.path.join(d, "poisson"),
                         ref.stationary_law(ref.gi_poisson_chain(rho, 1.0)))
            c = 1.0 / (rho * s["mu_det"])
            check_gi_pmf(problems, os.path.join(d, "deterministic"),
                         ref.stationary_law(
                             ref.gi_deterministic_chain(c, s["mu_det"])))
            model = GiModel(ArrivalDistribution.poisson(rho), 1.0)
            sol = giqueue.solve_factorial_moments(model)
            at0, at1 = giqueue.pgf(sol, model, 0.0), giqueue.pgf(sol, model, 1.0)
            if at0 != 0.0:
                problems.append(f"{d}: pgf(0) = {at0!r}")
            if not abs(at1 - 1.0) <= sol.defect + 1e-12:
                problems.append(f"{d}: pgf(1) = {at1!r}")

            # Every M/G stratum lies below rho = 0.75, inside the closed-form
            # dominance region of the M/M system (rho < sqrt(6)/pi).
            dom = read_canonical_json(os.path.join(d, "dom-mg", "dominance.json"),
                                      problems)
            if dom["satisfied"] is not True:
                problems.append(f"{d}: M/M dominance not satisfied at "
                                f"rho = {s['rho_mg']!r}")
            read_canonical_json(os.path.join(d, "dom-gi", "dominance.json"),
                                problems)
        return problems


class Simulate(Workload):
    """Simulator and artifact writer; the linear-system code does little."""

    name = "simulate"

    def draw(self, rng):
        return {"strata": [
            {"rho_mg": rng.uniform(*mg), "mu": rng.uniform(*MU_RANGE),
             "rho_gi": rng.uniform(*gi),
             "seeds": [rng.randrange(1 << 31) for _ in range(4)]}
            for mg, gi in zip(MG_STRATA, GI_STRATA)]}

    @staticmethod
    def simulate_argv(s, model, out):
        stages = ["--stages", SIM_STAGES, "--out", out]
        if model == "mg":
            return (["simulate", "--model", "mg", "--lambda",
                     s["rho_mg"] * s["mu"], "--mu", s["mu"],
                     "--seed", s["seeds"][0]] + stages)
        return (["simulate", "--model", "gi", "--rho", s["rho_gi"],
                 "--seed", s["seeds"][1]] + stages)

    def run(self, inputs):
        for s, d in zip(inputs["strata"], self.stratum_dirs()):
            gatedq(self.simulate_argv(s, "mg", d))
            gatedq(self.simulate_argv(s, "gi", d))
            gatedq(["compare", "--figure", "density",
                    "--lambda", s["rho_mg"] * s["mu"],
                    "--mu", s["mu"], "--stages", SIM_STAGES,
                    "--seed", s["seeds"][2], "--out", d])
            gatedq(["compare", "--figure", "pmf", "--rho", s["rho_gi"],
                    "--stages", SIM_STAGES, "--seed", s["seeds"][3],
                    "--out", d])

    def check(self, inputs, results, first):
        problems = []
        for s, d in zip(inputs["strata"], self.stratum_dirs()):
            lam, mu = s["rho_mg"] * s["mu"], s["mu"]
            fp = ref.KernelFixedPoint(lam, ref.exponential_law(mu))
            law = ref.stationary_law(ref.gi_poisson_chain(s["rho_gi"], 1.0))
            states = np.arange(1, len(law) + 1)

            for model in ("mg", "gi"):
                check_trace(problems, os.path.join(d, f"trace-{model}.csv"),
                            model)
            st = read_canonical_json(os.path.join(d, "stats-mg.json"), problems)
            within_window(problems, f"{d}: M/G mean active length",
                          st["mean_y"], st["se_y"], fp.beta1)
            within_window(problems, f"{d}: M/G mean K", st["mean_k"],
                          st["se_k"], fp.mean_k)
            st = read_canonical_json(os.path.join(d, "stats-gi.json"), problems)
            within_window(problems, f"{d}: GI mean K", st["mean_k"],
                          st["se_k"], law @ states)

            rows = read_csv(os.path.join(d, "compare-density.csv"))
            close(problems, f"{d}: compare density",
                  [float(r["analytic"]) for r in rows],
                  fp.density([float(r["y"]) for r in rows]))
            rows = read_csv(os.path.join(d, "compare-pmf.csv"))
            close(problems, f"{d}: compare pmf",
                  [float(r["analytic"]) for r in rows],
                  [law[int(r["i"]) - 1] if int(r["i"]) <= len(law) else 0.0
                   for r in rows])

            if first:
                # Same seed, same bytes: rerun both simulations elsewhere.
                again = os.path.join(d, "again")
                for model in ("mg", "gi"):
                    gatedq(self.simulate_argv(s, model, again))
                    for name in (f"trace-{model}.csv", f"stats-{model}.json"):
                        if not filecmp.cmp(os.path.join(d, name),
                                           os.path.join(again, name),
                                           shallow=False):
                            problems.append(f"{d}: {name} differs between "
                                            "two runs with the same seed")
        return problems


def _erlang2(rate: float):
    """Erlang-2 service law as plain numpy callables, no sampler."""
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, rate * rate * y * np.exp(-rate * y))

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, 1.0 - (1.0 + rate * y) * np.exp(-rate * y))

    return ServiceDistribution.from_callables(pdf, cdf, name=f"erlang2({rate})")


def _uniform(b: float):
    """Uniform(0, b) service law as plain numpy callables, no sampler."""
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0) & (y <= b), 1.0 / b, 0.0)

    def cdf(y):
        return np.clip(np.asarray(y, dtype=float) / b, 0.0, 1.0)

    return ServiceDistribution.from_callables(pdf, cdf, name=f"uniform({b})")


ERLANG_RATE = 10.0
UNIFORM_B = 0.5


class UserLaw(Workload):
    """The linsys ladder over quadrature-backed coefficients."""

    name = "user-law"

    def __init__(self, seed, out):
        super().__init__(seed, out)
        # (name, law given to gatedq, reference law, end of the density grid)
        self.laws = [
            ("erlang2", _erlang2(ERLANG_RATE), ref.erlang2_law(ERLANG_RATE),
             10.0 / ERLANG_RATE),
            ("uniform", _uniform(UNIFORM_B), ref.uniform_law(UNIFORM_B),
             UNIFORM_B)]

    def draw(self, rng):
        return {"lam": rng.uniform(*USER_LAM)}

    def run(self, inputs):
        results = []
        for _, law, _, end in self.laws:
            model = MgModel(inputs["lam"], law)
            sol = mgqueue.solve_stage_moments(model, order=4)
            grid = np.linspace(0.0, end, DENSITY_POINTS, endpoint=False)
            results.append({"model": model, "sol": sol, "grid": grid,
                            "density": mgqueue.stationary_density(sol, model,
                                                                  grid)})
        return results

    def check(self, inputs, results, first):
        problems = []
        for (name, _, ref_law, _), r in zip(self.laws, results):
            fp = ref.KernelFixedPoint(inputs["lam"], ref_law)
            sol = r["sol"]
            close(problems, f"{name}: beta1", sol.beta1, fp.beta1)
            close(problems, f"{name}: EK", 1.0 + sol.s, fp.mean_k)
            close(problems, f"{name}: density", r["density"],
                  fp.density(r["grid"]))
            # stage_count_pmf misplaces mass for a density with a jump
            # inside its quadrature range (CHANGES.md, FOUND), so the pmf is
            # checked on the smooth law only.
            if name == "erlang2":
                close(problems, f"{name}: M/G pmf",
                      [mgqueue.stage_count_pmf(sol, r["model"], k)
                       for k in (1, 2, 3)],
                      [fp.pmf(k) for k in (1, 2, 3)])
        return problems


WORKLOADS = {w.name: w for w in (Analyze, Simulate, UserLaw)}
