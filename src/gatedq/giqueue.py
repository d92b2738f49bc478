"""Customers-per-stage analysis of the synchronized gated GI/M/inf chain.

Customers arrive by a renewal process with interarrival law tau and are
served in parallel at rate mu.  The gate stays closed until the first
arrival epoch strictly after all admitted services finish; the arrival that
reopens the gate is served in the next stage.  The number K_n of customers
served in stage n is therefore a Markov chain on {1, 2, ...} whose
transition probabilities have the closed form

    P_ij = sum_{k=1}^{i} C(i,k) (-1)^k bhat_k^{j-1} (bhat_k - 1),

with bhat_k = Bhat(k mu), the interarrival Laplace transform evaluated at
multiples of the service rate.  (The k = 0 term of the binomial expansion is
identically zero because bhat_0 = 1; it is dropped analytically rather than
computed, and the remaining alternating sum is evaluated pairwise because
the binomial weights cancel catastrophically for large i.  Rows beyond
i = 60 are refused in double precision; simulate instead.)

The scaled factorial moments x_m = phi^(m)(1)/m! of the stationary pmf
satisfy x_m = sum_k x_k (-1)^{k-1} a_mk with a_mk = bhat_k^{m-1}/(1-bhat_k)^m.
That homogeneous system is closed by the structural identity phi(0) = 0
(every stage serves at least one customer), whose power-series form
sum_m (-1)^m x_m = -1 replaces the m = 1 equation and makes the system
inhomogeneous.  The light-traffic condition bhat_1 < 1/2 guarantees the
power series manipulations behind that step.

For Poisson arrivals (bhat_k = rho/(rho+k)) the system in unknowns
w_i = i x_i, with rows i >= 2 scaled by rho^{-i/2}, is strictly diagonally
dominant for small rho; a closed-form sufficient region is rho < 6/pi^2
(row 1) together with i rho^{i-1} (zeta(i) + rho zeta(i+1)) < 1 for all
i >= 2, which binds at i = 2 and holds for rho below about 0.256.  Probed
dominance of the truncated rows actually extends to rho around 0.34; beyond
that the truncations still converge in practice and the report says honestly
that dominance failed.

From a solved x-vector the stationary pmf and pgf come out as alternating
combinations of geometric laws:

    pi_i = sum_k x_k (-1)^{k-1} (1 - bhat_k) bhat_k^{i-1},
    phi(z) = z sum_k x_k (-1)^{k-1} (1 - bhat_k) / (1 - bhat_k z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import zeta

from . import linsys
from .distributions import ArrivalDistribution
from .errors import OutOfRegimeError, UnconvergedError

_MAX_BINOMIAL_ROW = 60
_PMF_TERM_TOL = 1e-14
_NEGATIVE_CLAMP = -1e-10


@dataclass(frozen=True)
class GiModel:
    """Synchronized gated GI/M/inf model.

    rho = 1 / (mu E[tau]) is the offered load; b0 = E[tau^2]/(E[tau])^2 is
    the Lorden constant bounding the overshoot of the renewal process past
    the end of the active phase.
    """

    arrivals: ArrivalDistribution
    mu: float
    _bhat_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"service rate must be positive, got {self.mu}")
        if self.arrivals.mean <= 0:
            raise ValueError("interarrival mean must be positive")

    @property
    def rho(self) -> float:
        return 1.0 / (self.mu * self.arrivals.mean)

    @property
    def b0(self) -> float:
        return self.arrivals.b0

    def bhat(self, k: int) -> float:
        """bhat_k = Bhat(k mu), memoized."""
        hit = self._bhat_cache.get(k)
        if hit is None:
            hit = self.arrivals.laplace(k * self.mu)
            self._bhat_cache[k] = hit
        return hit


@dataclass
class GiMomentSolution:
    """Scaled factorial moments x_m with solve diagnostics.

    defect records |sum_m (-1)^m x_m + 1|, the residual of the structural
    identity phi(0) = 0; it is reported, never re-imposed on the solution.
    """

    x: dict
    n_used: int
    converged: bool
    defect: float
    convergence: linsys.ConvergedSolution
    dominance: linsys.DominanceReport
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "x": {str(m): float(v) for m, v in sorted(self.x.items())},
            "EK": float(self.x[1]),
            "n_used": self.n_used,
            "converged": self.converged,
            "defect": float(self.defect),
            "convergence": self.convergence.to_dict(),
            "dominance": self.dominance.to_dict(),
            "notes": list(self.notes),
        }


class LightTraffic(NamedTuple):
    ok: bool
    margin: float


def light_traffic_ok(model: GiModel) -> LightTraffic:
    """Whether bhat_1 < 1/2, with the margin 1/2 - bhat_1."""
    b1 = model.bhat(1)
    return LightTraffic(ok=b1 < 0.5, margin=0.5 - b1)


def _pairwise_sum(terms) -> float:
    vals = list(terms)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[k] + vals[k + 1] for k in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def transition_probability(model: GiModel, i: int, j: int) -> float:
    """P(K_next = j | K = i) for the customers-per-stage chain."""
    if i < 1 or j < 1:
        raise ValueError(f"states start at 1, got i={i}, j={j}")
    if i > _MAX_BINOMIAL_ROW:
        raise ValueError(
            f"row i={i} exceeds {_MAX_BINOMIAL_ROW}: the alternating binomial "
            "sum loses all precision in double arithmetic; estimate this row "
            "by simulation instead")
    terms = []
    for k in range(1, i + 1):
        bk = model.bhat(k)
        terms.append(math.comb(i, k) * (-1.0) ** k * bk ** (j - 1) * (bk - 1.0))
    return _pairwise_sum(terms)


def transition_row_mass(model: GiModel, i: int, head: int = 0) -> float:
    """sum_j P_ij with the tail beyond j = head summed as geometric series.

    head = 0 collapses to the pure closed form sum_k C(i,k)(-1)^{k+1}.
    """
    if i < 1:
        raise ValueError(f"states start at 1, got i={i}")
    if i > _MAX_BINOMIAL_ROW:
        raise ValueError(f"row i={i} exceeds {_MAX_BINOMIAL_ROW}")
    total = math.fsum(transition_probability(model, i, j)
                      for j in range(1, head + 1))
    tail_terms = []
    for k in range(1, i + 1):
        bk = model.bhat(k)
        tail_terms.append(math.comb(i, k) * (-1.0) ** k * (bk - 1.0)
                          * bk ** head / (1.0 - bk))
    return total + _pairwise_sum(tail_terms)


def _poisson_oracle(model: GiModel) -> linsys.CoefficientOracle:
    rho = model.rho

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        # Deep probe rows leave double range: rho^{-i/2}, i^i and j^i
        # overflow to inf, and the terms divided by them go to zero.
        with np.errstate(over="ignore"):
            row1 = np.where(j == 1, -(1.0 - rho),
                            (-1.0) ** (j - 1) * rho / (j * j))
            scale = rho ** (i / 2.0 - 1.0)
            diag = ((1.0 + rho / i) * (-1.0) ** (i - 1) * scale / (1.0 * i) ** i
                    - rho ** (-i / 2.0) / i)
            off = (-1.0) ** (j - 1) * (1.0 + rho / j) * scale / (1.0 * j) ** i
            return np.where(i == 1, row1, np.where(j == i, diag, off))

    def b(i):
        return np.where(np.asarray(i) == 1, -1.0, 0.0)

    def tail_row_bound(i, cutoff: int):
        i = np.asarray(i)
        with np.errstate(divide="ignore"):  # row 1 takes the other branch
            rows = ((1.0 + rho / (cutoff + 1)) * rho ** (i / 2.0 - 1.0)
                    * (1.0 * cutoff) ** (1 - i) / (i - 1))
        return np.where(i == 1, rho / cutoff, rows)

    def analytic_region() -> bool:
        if not rho < 6.0 / math.pi ** 2:
            return False
        worst = max(i * rho ** (i - 1) * (zeta(i) + rho * zeta(i + 1))
                    for i in range(2, 65))
        return bool(worst < 1.0)

    return linsys.CoefficientOracle(
        a=a, b=b, tail_row_bound=tail_row_bound,
        analytic_region=analytic_region,
        name=f"gi-poisson(rho={rho})")


def _general_oracle(model: GiModel) -> linsys.CoefficientOracle:
    """Factorial-moment system for a general interarrival transform.

    Unknowns are w_k = k x_k.  Row 1 is the structural identity written with
    the m = 1 equation folded in; rows m >= 2 keep the raw a_mk coefficients.
    No closed-form tail bound is supplied, so dominance probes of this
    oracle are lower estimates.
    """

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        b1 = model.bhat(1)
        bj = np.reshape([model.bhat(int(k)) for k in j.flat], j.shape)
        # a_ij = bj^(i-1) / (1 - bj)^i is inf once the denominator underflows.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            row1 = np.where(j == 1, -(1.0 - 2.0 * b1) / (1.0 - b1),
                            (-1.0) ** (j - 1) * bj / (j * (1.0 - bj)))
            den = (1.0 - bj) ** i
            a_ij = np.where(den == 0.0, np.inf, bj ** (i - 1) / den)
            return np.where(i == 1, row1, np.where(
                j == i, ((-1.0) ** (i - 1) * a_ij - 1.0) / i,
                (-1.0) ** (j - 1) * a_ij / j))

    def b(i):
        return np.where(np.asarray(i) == 1, -1.0, 0.0)

    return linsys.CoefficientOracle(a=a, b=b, name="gi-general")


def factorial_oracle(model: GiModel, override: bool = False) -> linsys.CoefficientOracle:
    """Oracle for the factorial-moment system in unknowns w_i = i x_i.

    Refuses models with bhat_1 >= 1/2 (outside light traffic) unless the
    caller overrides.  Poisson arrivals get the rho^{-i/2}-scaled rows with
    analytic tails and the closed-form sufficient region; any other arrival
    law gets the raw assembly with probed dominance only.
    """
    lt = light_traffic_ok(model)
    if not lt.ok and not override:
        raise OutOfRegimeError(
            f"bhat(mu) = {model.bhat(1):.4g} >= 1/2: outside the light-traffic "
            "region (pass override=True to assemble anyway)")
    if model.arrivals.kind == "poisson":
        return _poisson_oracle(model)
    return _general_oracle(model)


def solve_factorial_moments(model: GiModel, order: int = 25, tol: float = 1e-8,
                            n_max: Optional[int] = None,
                            override: bool = False) -> GiMomentSolution:
    """Solve the truncated factorial-moment system.

    Runs the doubling ladder from `order` up to n_max (default 4 * order),
    maps the solved w back to x_m = w_m / m, and records the residual of the
    structural identity sum (-1)^m x_m = -1.
    """
    if order < 4:
        raise ValueError(f"order must be >= 4, got {order}")
    oracle = factorial_oracle(model, override=override)
    conv = linsys.converge(oracle, order, n_max or 4 * order, tol)

    x = {m: float(conv.values[m - 1]) / m for m in range(1, conv.n_used + 1)}
    defect = abs(math.fsum((-1.0) ** m * xm for m, xm in x.items()) + 1.0)
    dom = linsys.dominance_report(oracle, order=min(conv.n_used, 64))
    notes = []
    neg = [m for m, xm in x.items() if xm <= 0]
    if neg:
        notes.append(f"nonpositive factorial moments at indices {neg}")
    return GiMomentSolution(x=x, n_used=conv.n_used, converged=conv.converged,
                            defect=defect, convergence=conv, dominance=dom,
                            notes=notes)


def stationary_pmf(sol: GiMomentSolution, model: GiModel, i: int) -> float:
    """pi_i as the alternating sum of geometric terms.

    The k-sum is cut at the first term below 1e-14 in magnitude.  Truncation
    of an alternating series can leave harmless tiny negatives; values in
    [-1e-10, 0) are clamped to zero.
    """
    if i < 1:
        raise ValueError(f"pmf support starts at 1, got i={i}")
    if not sol.converged:
        raise UnconvergedError("stationary_pmf needs a converged solution")
    terms = []
    for k in sorted(sol.x):
        bk = model.bhat(k)
        mag = abs(sol.x[k]) * (1.0 - bk) * bk ** (i - 1)
        if mag < _PMF_TERM_TOL:
            break
        terms.append(sol.x[k] * (-1.0) ** (k - 1) * (1.0 - bk) * bk ** (i - 1))
    val = math.fsum(terms)
    return 0.0 if _NEGATIVE_CLAMP <= val < 0.0 else val


def pmf_total_mass(sol: GiMomentSolution, model: GiModel) -> float:
    """sum_i pi_i with the geometric tails summed in closed form.

    Summing the geometric series over i first gives
    sum_i pi_i = sum_k x_k (-1)^{k-1}; the identity is exact term by term.
    """
    if not sol.converged:
        raise UnconvergedError("pmf_total_mass needs a converged solution")
    return math.fsum(sol.x[k] * (-1.0) ** (k - 1) for k in sorted(sol.x))


def pgf(sol: GiMomentSolution, model: GiModel, z: float) -> float:
    """Probability generating function of the stationary customers-per-stage law."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"pgf argument must lie in [0, 1], got {z}")
    if not sol.converged:
        raise UnconvergedError("pgf needs a converged solution")
    return z * math.fsum(
        sol.x[k] * (-1.0) ** (k - 1) * (1.0 - model.bhat(k))
        / (1.0 - model.bhat(k) * z)
        for k in sorted(sol.x))
