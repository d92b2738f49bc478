"""Stationary analysis of the gated M/G/inf stage-length chain.

Customers arrive in a Poisson stream with rate lam and are served in
parallel, but only in batches: all customers waiting when the gate opens are
admitted together, and the gate reopens when the slowest admitted service
finishes.  The active phase of a stage therefore lasts the maximum of the
admitted service times; a stage whose active phase sees no arrivals is
extended until the next arrival, and that next stage serves exactly one
customer.

The active-phase lengths Y_n form a Markov chain on [0, inf) with kernel
density

    q(x, y) = (lam x exp(-lam x Gbar(y)) + exp(-lam x)) g(y),

whose rows integrate to one exactly.  The stationary density f solves
f(y) = integral f(x) q(x, y) dx.  In light traffic f has a series form
driven by the scaled stationary moments y_i = lam^i beta_i / i!, where
beta_i = E[Y^i]:

    f(t) = g(t) [ 1 + sum_{k>=2} (-1)^k y_k (1 - k Gbar(t)^{k-1}) ],

and the y_i solve an infinite linear system.  For exponential service the
system is transformed (unknown x_1 = s := y_2 - y_3 + ..., x_i = y_i, rows
scaled by rho^{-i/2}) into a strictly diagonally dominant form whose
truncations provably converge for rho below about 0.779; truncations are
observed to converge for any rho < 1.  For general service no closed-form
dominance certificate exists and solutions are flagged as heuristic whenever
the probed report comes back unsatisfied.

The first moment is not determined by the system itself and is recovered
afterwards from

    beta_1 = gamma_{1,1} + sum_{k>=2} (-1)^k y_k (gamma_{1,1} - gamma_{1,k}),

which for exponential service reduces to
beta_1 = (1/mu) (1 + sum_{k>=2} (-1)^k y_k (k-1)/k).

A fixed-point iteration of the kernel on a quadrature grid provides an
independent numeric route to f for cross-checking the series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linsys
from .distributions import (GammaTable, ServiceDistribution, support_end,
                            tail_support)
from .errors import OutOfRegimeError, UnconvergedError

_SERIES_TERM_TOL = 1e-12
_GRID_TAIL_EPS = 1e-10


@dataclass(frozen=True)
class MgModel:
    """Gated M/G/inf model: Poisson(lam) arrivals and a service law."""

    lam: float
    service: ServiceDistribution

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.lam}")

    @property
    def mu(self) -> Optional[float]:
        return self.service.mu if self.service.kind == "exponential" else None

    @property
    def rho(self) -> Optional[float]:
        """Traffic intensity lam/mu; defined for exponential service only."""
        mu = self.mu
        return self.lam / mu if mu is not None else None


@dataclass
class MgMomentSolution:
    """Converged (or honestly non-converged) stage-length moments.

    beta[i] = E[Y^i] for i = 2..n_used, y[i] = lam^i beta[i]/i!, s is the
    alternating sum y_2 - y_3 + ..., and beta1 the separately recovered mean.
    heuristic marks general-service solves whose dominance probe failed.
    """

    lam: float
    beta: dict
    y: dict
    s: float
    beta1: float
    n_used: int
    converged: bool
    assembly: str
    convergence: linsys.ConvergedSolution
    dominance: linsys.DominanceReport
    heuristic: bool
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "beta": {str(i): float(v) for i, v in sorted(self.beta.items())},
            "y": {str(i): float(v) for i, v in sorted(self.y.items())},
            "s": float(self.s),
            "beta1": float(self.beta1),
            "EK": 1.0 + float(self.s),
            "n_used": self.n_used,
            "converged": self.converged,
            "assembly": self.assembly,
            "heuristic": self.heuristic,
            "convergence": self.convergence.to_dict(),
            "dominance": self.dominance.to_dict(),
            "notes": list(self.notes),
        }


def kernel_density(model: MgModel, x, y):
    """Transition kernel density q(x, y) of the stage-length chain.

    Accepts scalars or arrays; negative arguments are rejected.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr < 0) or np.any(y_arr < 0):
        raise ValueError("kernel_density needs x >= 0 and y >= 0")
    lam = model.lam
    g = model.service.pdf(y_arr)
    gbar = model.service.sf(y_arr)
    q = (lam * x_arr * np.exp(-lam * x_arr * gbar) + np.exp(-lam * x_arr)) * g
    return q if np.ndim(q) else float(q)


def _transformed_oracle(model: MgModel) -> linsys.CoefficientOracle:
    """Dominant transformed system for exponential service.

    Unknown 1 is s, unknown i >= 2 is y_i.  Row 1 carries the alternating-sum
    identity; rows i >= 2 are the moment equations scaled by rho^{-i/2}.
    Analytic row tails: sum_{j>J} rho^2/(j(j+rho)) < rho^2/J for row 1 and
    sum_{j>J} (sqrt(rho)/j)^i < rho^{i/2} J^{1-i}/(i-1) for rows i >= 2.
    The closed-form sufficient region is rho < sqrt(6)/pi (about 0.78)
    together with the row-1 inequality rho^2(pi^2/6 - 1) < (1+rho-rho^2)/(1+rho).
    """
    rho = model.rho

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        # Deep probe rows leave double range: rho^{-i/2} and i^i overflow to
        # inf, and the term divided by i^i goes to zero.
        with np.errstate(over="ignore"):
            row1 = np.where(j == 1, (1.0 + rho - rho * rho) / (1.0 + rho),
                            (-1.0) ** j * rho * rho / (j * (j + rho)))
            diag = (rho ** (-i / 2.0)
                    + (-1.0) ** i * rho ** (i / 2.0) / (1.0 * i) ** i)
            off = (-1.0) ** j * (math.sqrt(rho) / j) ** i
            return np.where(i == 1, row1,
                            np.where(j == 1, -rho ** (i / 2.0),
                                     np.where(j == i, diag, off)))

    def b(i):
        i = np.asarray(i)
        return np.where(i == 1, rho * rho / (1.0 + rho), rho ** (i / 2.0))

    def tail_row_bound(i, cutoff: int):
        i = np.asarray(i)
        with np.errstate(divide="ignore"):  # row 1 takes the other branch
            rows = rho ** (i / 2.0) * (1.0 * cutoff) ** (1 - i) / (i - 1)
        return np.where(i == 1, rho * rho / cutoff, rows)

    def analytic_region() -> bool:
        row1 = rho * rho * (math.pi ** 2 / 6.0 - 1.0) < (1.0 + rho - rho * rho) / (1.0 + rho)
        rows = rho < math.sqrt(6.0) / math.pi
        return row1 and rows

    return linsys.CoefficientOracle(
        a=a, b=b, tail_row_bound=tail_row_bound,
        analytic_region=analytic_region,
        name=f"mg-transformed(rho={rho})")


def _general_oracle(model: MgModel, table: GammaTable) -> linsys.CoefficientOracle:
    """Raw moment system for a general service law, conditioned by rescaling.

    Oracle index m corresponds to moment index i = m + 1 (rows and unknowns
    both start at the second moment).  Row i is divided by gamma_{i,1} and
    the unknowns are the scaled moments y_j = lam^j beta_j / j!, giving

        (i!/(lam^i gamma_{i,1})) y_i - sum_{j>=2} (-1)^j (1 - gamma_{i,j}/gamma_{i,1}) y_j = 1.

    Off-diagonal entries tend to a constant along each row, so no finite
    analytic tail bound exists; dominance probes of this oracle are honest
    lower estimates and never certify convergence.  Each entry reads the
    gamma table, which computes an entry by quadrature once.
    """
    lam = model.lam

    def lead(i: int) -> float:
        try:
            return math.factorial(i) / (lam ** i * table.gamma(i, 1))
        except (OverflowError, ZeroDivisionError):
            return math.inf

    def a(mi, mj):
        i, j = np.broadcast_arrays(np.asarray(mi) + 1, np.asarray(mj) + 1)
        pairs = [(int(p), int(q)) for p, q in zip(i.flat, j.flat)]
        ratio = np.reshape([table.ratio(p, q) for p, q in pairs], i.shape)
        diag = np.reshape([lead(p) if p == q else 0.0 for p, q in pairs],
                          i.shape)
        return diag - (-1.0) ** j * (1.0 - ratio)

    def b(_i):
        return 1.0

    return linsys.CoefficientOracle(a=a, b=b, name=f"mg-general(lam={lam})")


def moment_oracle(model: MgModel, assembly: str = "auto",
                  table: Optional[GammaTable] = None) -> linsys.CoefficientOracle:
    """Coefficient oracle for the stage-moment system.

    assembly "auto" picks the transformed exponential system when the service
    law is exponential (the only case with a dominance certificate) and the
    general gamma-table system otherwise.  "general" can be forced for an
    exponential law to cross-check the two assemblies against each other.
    """
    exponential = model.service.kind == "exponential"
    if assembly == "auto":
        assembly = "transformed" if exponential else "general"
    if assembly == "transformed":
        if not exponential:
            raise ValueError("transformed assembly needs exponential service")
        if model.rho >= 1.0:
            raise OutOfRegimeError(
                f"rho = {model.rho:.4g} >= 1: the stationary moment system "
                "is outside the light-traffic regime")
        return _transformed_oracle(model)
    if assembly == "general":
        return _general_oracle(model, table or GammaTable(model.service))
    raise ValueError(f"unknown assembly {assembly!r}")


def solve_stage_moments(model: MgModel, order: int = 10, tol: float = 1e-8,
                        n_max: Optional[int] = None,
                        assembly: str = "auto") -> MgMomentSolution:
    """Solve the truncated moment system and recover beta_1.

    order is the first rung of a doubling truncation ladder; the ladder runs
    to n_max (default 8 * order) or until successive solutions agree to tol.
    Passing n_max == order pins the truncation at exactly that size (see
    linsys.converge), which is how the fixed-truncation figures are
    reproduced.
    """
    if order < 4:
        raise ValueError(f"order must be >= 4, got {order}")
    exponential = model.service.kind == "exponential"
    if assembly == "auto":
        assembly = "transformed" if exponential else "general"
    table = GammaTable(model.service)
    oracle = moment_oracle(model, assembly=assembly, table=table)

    conv = linsys.converge(oracle, order, n_max or 8 * order, tol)

    lam = model.lam
    if assembly == "transformed":
        s = float(conv.values[0])
        y = {i: float(conv.values[i - 1]) for i in range(2, conv.n_used + 1)}
    else:
        y = {m + 2: float(v) for m, v in enumerate(conv.values)}
        s = math.fsum((-1.0) ** i * yi for i, yi in y.items())

    beta = {i: math.factorial(i) * yi / lam ** i for i, yi in y.items()}
    g11 = table.gamma(1, 1)
    beta1 = g11 + math.fsum(
        (-1.0) ** k * y[k] * (g11 - table.gamma(1, k)) for k in sorted(y))

    dom = linsys.dominance_report(oracle, order=min(conv.n_used, 64))
    heuristic = not dom.satisfied
    notes = []
    neg = [i for i, yi in y.items() if yi <= 0]
    if neg:
        notes.append(f"nonpositive scaled moments at indices {neg}")
    return MgMomentSolution(
        lam=lam, beta=beta, y=y, s=s, beta1=beta1, n_used=conv.n_used,
        converged=conv.converged, assembly=assembly, convergence=conv,
        dominance=dom, heuristic=heuristic, notes=notes)


def _series_cutoff(y: dict) -> list:
    """Moment indices to keep in the density series.

    The bracket multiplying y_k is bounded by 1 + k, so the series is cut at
    the first k with |y_k| (1 + k) below 1e-12.
    """
    keep = []
    for k in sorted(y):
        if abs(y[k]) * (1 + k) < _SERIES_TERM_TOL:
            break
        keep.append(k)
    return keep


def _density_series(sol: MgMomentSolution, model: MgModel):
    """The density series of one solution as a function t -> f(t).

    The cutoff and the signed coefficients (-1)^k y_k are fixed once, so a
    quadrature that evaluates f node by node pays only for the terms.  t is
    a float or a float array.  A float is summed in Python floats; its
    powers Gbar^(k-1) still come from numpy, as an array's do, so f(t) and
    f(array([t]))[0] are the same float.  Terms are accumulated with Kahan
    compensation because the series alternates.
    """
    ks = _series_cutoff(sol.y)
    coef = [(-1.0) ** k * sol.y[k] for k in ks]
    exps = np.array([k - 1.0 for k in ks])
    square = ks.index(3) if 3 in ks else None
    pdf, sf = model.service.pdf, model.service.sf

    def density(t):
        if np.ndim(t):
            g = np.asarray(pdf(t), dtype=float)
            gbar = np.asarray(sf(t), dtype=float)
            powers = (gbar ** (k - 1) for k in ks)
        else:
            g, gbar = float(pdf(t)), float(sf(t))
            powers = np.power(gbar, exps).tolist()
            # numpy squares an array raised to a scalar 2 instead of calling
            # its pow loop, and the two can differ in the last bit.
            if square is not None:
                powers[square] = gbar * gbar
        total, comp = g, 0.0
        for k, c, p in zip(ks, coef, powers):
            term = c * g * (1.0 - k * p)
            delta = term - comp
            fresh = total + delta
            comp = (fresh - total) - delta
            total = fresh
        return total

    return density


def stationary_density(sol: MgMomentSolution, model: MgModel, y):
    """Series form of the stationary stage-length density at y.

    Refuses unconverged solutions.  Returns a float for a scalar y and an
    array otherwise.
    """
    if not sol.converged:
        raise UnconvergedError(
            "stationary_density needs a converged moment solution")
    t = np.asarray(y, dtype=float)
    if np.any(t < 0):
        raise ValueError("density argument must be >= 0")
    return _density_series(sol, model)(t if t.ndim else float(t))


def mean_customers_per_stage(sol: MgMomentSolution) -> float:
    """E[K] = 1 + s: every stage serves its closing arrival plus s on average."""
    if not sol.converged:
        raise UnconvergedError(
            "mean_customers_per_stage needs a converged moment solution")
    return 1.0 + sol.s


def stage_count_pmf(sol: MgMomentSolution, model: MgModel, k: int) -> float:
    """P(K = k) by quadrature of the conditional law against the density.

    Conditional on a stage length y the next stage serves Poisson(lam y)
    customers for k >= 2 and 1 with the folded probability (1 + lam y) e^{-lam y}.
    """
    from scipy import integrate

    if k < 1:
        raise ValueError(f"customer count starts at 1, got k={k}")
    if not sol.converged:
        raise UnconvergedError("stage_count_pmf needs a converged moment solution")
    lam = model.lam
    y_max = support_end(model.service,
                        tail_support(model.service, _GRID_TAIL_EPS))
    density = _density_series(sol, model)

    if k == 1:
        def weight(t):
            return (1.0 + lam * t) * math.exp(-lam * t)
    else:
        log_fact = math.lgamma(k + 1)

        def weight(t):
            if t <= 0.0:
                return 0.0
            return math.exp(k * math.log(lam * t) - lam * t - log_fact)

    def integrand(t):
        return weight(t) * density(t)

    points = [min(y_max * 0.999, k / lam)] if k >= 2 else None
    val, _err = integrate.quad(integrand, 0.0, y_max, epsabs=1e-10,
                               limit=400, points=points)
    return val


@dataclass
class FixedPointDensity:
    """Stationary density on a grid, from iterating the kernel directly."""

    y: np.ndarray
    f: np.ndarray
    iterations: int
    last_change: float
    converged: bool
    y_max: float

    def interpolate(self, t):
        return np.interp(t, self.y, self.f)


def fixed_point_density(model: MgModel, n_points: int = 2048,
                        y_max: Optional[float] = None, tol: float = 1e-10,
                        max_iter: int = 500) -> FixedPointDensity:
    """Iterate f <- integral f(x) q(x, .) dx on a trapezoid grid from f0 = g.

    The mass is renormalized to one after each sweep (the kernel rows already
    integrate to one, so this only removes quadrature error).  Exceeding
    max_iter returns converged=False with the last sup-norm change; it does
    not raise.
    """
    if y_max is None:
        y_max = tail_support(model.service, _GRID_TAIL_EPS)
    elif float(model.service.sf(y_max)) >= _GRID_TAIL_EPS:
        raise ValueError(
            f"grid must cover the service tail: Gbar({y_max}) = "
            f"{float(model.service.sf(y_max)):.3g} >= 1e-10")
    grid = np.linspace(0.0, y_max, n_points)
    w = np.full(n_points, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5

    q = kernel_density(model, grid[:, None], grid[None, :])
    f = np.asarray(model.service.pdf(grid), dtype=float)
    f = f / float(f @ w)
    last_change = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        nxt = (f * w) @ q
        nxt = nxt / float(nxt @ w)
        last_change = float(np.abs(nxt - f).max())
        f = nxt
        if last_change < tol:
            converged = True
            break
    return FixedPointDensity(y=grid, f=f, iterations=it,
                             last_change=last_change, converged=converged,
                             y_max=y_max)
