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

and the y_i solve an infinite linear system.  As a polynomial in Gbar(t),
f(t) = g(t) sum_j j w_j Gbar(t)^{j-1} is a signed mixture of the laws of
min(sigma_1, ..., sigma_j), whose weights every reader sums over.

For exponential service the system is transformed (unknown x_1 = s :=
y_2 - y_3 + ..., x_i = y_i, rows scaled by rho^{-i/2}) into a strictly diagonally dominant form whose
truncations provably converge for rho below about 0.779 (the closed-form
sufficient region, sqrt(6)/pi); truncations are observed to converge for any
rho < 1.  Its off-diagonal row sums are zeta sums over every column, so the
dominance report's sigma_i is exact for this system, and the plain rows stay
dominant up to rho about 0.9346 (row 2 binds).  For general service no
dominance certificate exists: every off-diagonal row and column sum of the
general system is infinite, its oracle states them so, its report holds
every sigma_i as unbounded without probing, and its solutions are always
flagged as heuristic.

The first moment is not determined by the system itself and is recovered
afterwards from

    beta_1 = gamma_{1,1} + sum_{k>=2} (-1)^k y_k (gamma_{1,1} - gamma_{1,k}),

which for exponential service reduces to
beta_1 = (1/mu) (1 + sum_{k>=2} (-1)^k y_k (k-1)/k).

A fixed-point iteration of the kernel on a quadrature grid provides an
independent numeric route to f for cross-checking the series.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linsys
from .distributions import (DivergentMomentError, GammaTable,
                            ServiceDistribution, _on_nodes, piecewise_integral,
                            support_end, tail_support)
from .errors import OutOfRegimeError, count, positive
from .giqueue import _BERNOULLI, _zeta

_SERIES_TERM_TOL = 1e-12
_GRID_TAIL_EPS = 1e-10
_FIXED_POINT_TOL = 1e-10
_FIXED_POINT_MAX_ITER = 500
# psi(2 + rho) - psi(2) sums its first terms and starts the asymptotic
# series of psi at 12.
_DIGAMMA_HEAD = 12


@dataclass(frozen=True)
class MgModel:
    """Gated M/G/inf model: Poisson(lam) arrivals and a service law."""

    lam: float
    service: ServiceDistribution

    def __post_init__(self):
        positive(self.lam, "arrival rate lam")

    @property
    def mu(self) -> Optional[float]:
        """The service rate, carried by exponential laws only."""
        return self.service.mu

    @property
    def rho(self) -> Optional[float]:
        """Traffic intensity lam/mu; defined for exponential service only."""
        mu = self.mu
        return self.lam / mu if mu is not None else None


@dataclass
class MgMomentSolution(linsys.LadderSolution):
    """Converged (or honestly non-converged) stage-length moments.

    beta[i] = E[Y^i] for i = 2..n_used (an index whose beta_i leaves double
    range is left out, and a note names it), y[i] = lam^i beta[i]/i!, s is the
    alternating sum y_2 - y_3 + ..., and beta1 the separately recovered mean.
    The oracle keeps the service law and its gamma table alive; the general
    assembly states every row sum unbounded, so its report never certifies
    and its solutions are always heuristic (see linsys.LadderSolution).
    """

    lam: float
    beta: dict
    y: dict
    s: float
    beta1: float
    assembly: str

    @functools.cached_property
    def weights(self) -> tuple:
        """(w_1, ..., w_K): c_k = (-1)^k y_k over the terms k = 2..K that
        _series_cutoff keeps, w_1 = 1 + sum_k c_k and w_k = -c_k."""
        coef = [(-1.0) ** k * self.y[k] for k in _series_cutoff(self.y)]
        return (1.0 + math.fsum(coef), *(-c for c in coef))

    def to_dict(self) -> dict:
        return {
            "lam": self.lam,
            "beta": {str(i): float(v) for i, v in sorted(self.beta.items())},
            "y": {str(i): float(v) for i, v in sorted(self.y.items())},
            "s": float(self.s),
            "beta1": float(self.beta1),
            "EK": 1.0 + float(self.s),
            "assembly": self.assembly,
            "heuristic": self.heuristic,
            **self._ladder_dict(),
        }


def kernel_density(model: MgModel, x, y):
    """Transition kernel density q(x, y) of the stage-length chain.

    Accepts scalars or arrays; negative and NaN arguments are rejected.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if not (np.all(x_arr >= 0) and np.all(y_arr >= 0)):
        raise ValueError("kernel_density needs x >= 0 and y >= 0")
    lam = model.lam
    g = model.service.pdf(y_arr)
    gbar = model.service.sf(y_arr)
    q = (lam * x_arr * np.exp(-lam * x_arr * gbar) + np.exp(-lam * x_arr)) * g
    return q if np.ndim(q) else float(q)


def _digamma_shift(rho: float) -> float:
    """psi(2 + rho) - psi(2) for rho >= 0.

    Sums rho/(j(j+rho)) for j = 2..11 and adds psi(12 + rho) - psi(12) from
    the asymptotic series of psi with Bernoulli terms through B_16, each
    difference formed without cancellation, all in one math.fsum.
    """
    m = _DIGAMMA_HEAD
    t = rho / m
    terms = [rho / (j * (j + rho)) for j in range(2, m)]
    terms += [math.log1p(t), rho / (2.0 * m * (m + rho))]
    for k, b in enumerate(_BERNOULLI, start=1):
        # -B_2k / (2k) ((m + rho)^-2k - m^-2k)
        terms.append(-b / (2 * k) * m ** (-2 * k)
                     * math.expm1(-2 * k * math.log1p(t)))
    return math.fsum(terms)


def _transformed_oracle(model: MgModel) -> linsys.CoefficientOracle:
    """Dominant transformed system for exponential service.

    Unknown 1 is s, unknown i >= 2 is y_i.  Row 1 carries the alternating-sum
    identity; rows i >= 2 are the moment equations scaled by rho^{-i/2}.
    Exact off-diagonal row sums: rho (psi(2+rho) - psi(2)) for row 1 and
    rho^{i/2} (zeta(i) - i^{-i}) for rows i >= 2.  The closed-form
    sufficient region is rho < sqrt(6)/pi (about 0.78) together with the
    row-1 inequality rho^2(pi^2/6 - 1) < (1+rho-rho^2)/(1+rho).
    """
    rho = model.rho

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        # Deep rows leave double range: rho^{-i/2} and i^i overflow to
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

    def exact_row_sums(i):
        # Row 1: rho^2 sum_{j>=2} 1/(j(j+rho)) = rho (psi(2+rho) - psi(2));
        # row i >= 2: rho^{i/2} (1 + sum_{j>=2, j != i} j^{-i}).
        i = np.asarray(i)
        zeta = np.array([_zeta(k) for k in np.maximum(i, 2).tolist()])
        rows = rho ** (i / 2.0) * (zeta - (1.0 * i) ** -i)
        return (np.where(i == 1, rho * _digamma_shift(rho), rows),
                rho < 1.0, rho < 1.0)

    def analytic_region() -> bool:
        row1 = rho * rho * (math.pi ** 2 / 6.0 - 1.0) < (1.0 + rho - rho * rho) / (1.0 + rho)
        rows = rho < math.sqrt(6.0) / math.pi
        return row1 and rows

    return linsys.CoefficientOracle(
        a=a, b=b, analytic_region=analytic_region,
        exact_row_sums=exact_row_sums, name=f"mg-transformed(rho={rho})")


def _general_oracle(model: MgModel, table: GammaTable) -> linsys.CoefficientOracle:
    """Raw moment system for a general service law, conditioned by rescaling.

    Oracle index m corresponds to moment index i = m + 1 (rows and unknowns
    both start at the second moment).  Row i is divided by gamma_{i,1} and
    the unknowns are the scaled moments y_j = lam^j beta_j / j!, giving

        (i!/(lam^i gamma_{i,1})) y_i - sum_{j>=2} (-1)^j (1 - gamma_{i,j}/gamma_{i,1}) y_j = 1.

    Along each row |a_ij| -> 1 - lim_j gamma_{i,j}/gamma_{i,1} > 0 (a law
    with a density is no point mass), and so down each column: exact_row_sums
    states every row sum unbounded and the side conditions false, and a
    solve on this oracle is always heuristic.  A block reads its ratios from
    the table, and the diagonal's gamma_{i,1} in a second gather, which for
    a law without a rate computes nothing the ratios have not read.  The
    table is the law's own unless a caller passes another, so an oracle at a
    new lam computes only the entries that no earlier solve of the law has
    read.  The lead i!/(lam^i gamma_{i,1}) is that quotient where it is
    finite and positive; else (mu/lam)^i for an exponential law, whose
    gamma_{i,1} saturates at inf, else the quotient in log space.
    """
    lam, mu = model.lam, model.mu

    def lead(i: int, gamma: float) -> float:
        # Python floats: lam ** i is libm's pow, which numpy's power does
        # not always match in the last bit.
        try:
            q = math.factorial(i) / (lam ** i * gamma)
        except (OverflowError, ZeroDivisionError):
            q = math.inf
        try:
            if 0.0 < q < math.inf:
                return q
            if mu:
                return (mu / lam) ** i
            if 0.0 < gamma < math.inf:
                return math.exp(math.lgamma(i + 1.0) - i * math.log(lam)
                                - math.log(gamma))
        except OverflowError:
            return math.inf
        return q

    def a(mi, mj):
        i, j = np.asarray(mi) + 1, np.asarray(mj) + 1
        on = i == j
        rows = np.broadcast_to(i, on.shape)[on]
        ratio = table.ratios(i, j)
        diag = np.zeros(on.shape)
        diag[on] = [lead(p, g) for p, g in zip(
            rows.tolist(), table.gammas(rows, 1).tolist())]
        return diag - (-1.0) ** j * (1.0 - ratio)

    def b(_i):
        return 1.0

    def exact_row_sums(i):
        return np.full(np.shape(i), math.inf), False, False

    return linsys.CoefficientOracle(a=a, b=b, exact_row_sums=exact_row_sums,
                                    name=f"mg-general(lam={lam})")


def moment_oracle(model: MgModel, assembly: str = "auto",
                  table: Optional[GammaTable] = None) -> linsys.CoefficientOracle:
    """Coefficient oracle for the stage-moment system.

    assembly "auto" picks the transformed exponential system when the service
    law carries a rate mu, i.e. is exponential (the only case with a
    dominance certificate), and the general gamma-table system otherwise.
    "general" can be forced for an exponential law to cross-check the two
    assemblies against each other.  The general system reads table, by
    default the law's own gamma_table.
    """
    exponential = model.mu is not None
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
        return _general_oracle(model, table or model.service.gamma_table)
    raise ValueError(f"unknown assembly {assembly!r}")


def _raw_moment(i: int, yi: float, lam: float) -> Optional[float]:
    """beta_i = i! y_i / lam^i, or None when it lies outside double range.

    Where i! (from i = 171 on) or lam^i leaves double range, or the quotient
    comes out infinite from a finite y_i, it is formed in log space instead.
    """
    try:
        bi = math.factorial(i) * yi / lam ** i
        if not math.isinf(bi) or math.isinf(yi):
            return bi
    except ArithmeticError:
        if not yi or not math.isfinite(yi):
            return yi
    try:
        return math.copysign(math.exp(
            math.lgamma(i + 1.0) + math.log(abs(yi)) - i * math.log(lam)), yi)
    except OverflowError:
        return None


def solve_stage_moments(model: MgModel, order: int = 10, tol: float = 1e-8,
                        n_max: Optional[int] = None,
                        assembly: str = "auto") -> MgMomentSolution:
    """Solve the truncated moment system and recover beta_1.

    order is the first rung of a doubling truncation ladder; the ladder runs
    to n_max (default 8 * order) or until successive solutions agree to tol.
    Passing n_max == order pins the truncation at exactly that size (see
    linsys.converge), which is how the fixed-truncation figures are
    reproduced.  A min moment that cannot be computed (DivergentMomentError)
    on a rung after the first ends the ladder at the last rung that solved:
    the solution comes back unconverged, with a note naming the entry.  On
    the first rung it raises.  A ladder that converges to s < 0 or to
    beta_1 < gamma_{1,1} comes back unconverged too, with a note giving
    both numbers; its convergence.converged stays the ladder's own verdict.
    """
    order = count(order, "order", 4)
    if assembly == "auto":
        assembly = "transformed" if model.mu is not None else "general"
    table = model.service.gamma_table
    oracle = moment_oracle(model, assembly=assembly, table=table)

    conv = linsys.converge(oracle, order, n_max or 8 * order, tol,
                           stop_on=(DivergentMomentError,))

    lam = model.lam
    if assembly == "transformed":
        s = float(conv.values[0])
        y = {i: float(conv.values[i - 1]) for i in range(2, conv.n_used + 1)}
    else:
        y = {m + 2: float(v) for m, v in enumerate(conv.values)}
        s = math.fsum((-1.0) ** i * yi for i, yi in y.items())

    raw = {i: _raw_moment(i, yi, lam) for i, yi in y.items()}
    beta = {i: bi for i, bi in raw.items() if bi is not None}
    ks = sorted(y)
    g11, *g1k = table.gammas(1, [1] + ks).tolist()
    beta1 = g11 + math.fsum(
        (-1.0) ** k * y[k] * (g11 - g) for k, g in zip(ks, g1k))

    notes = [f"ladder stopped at n = {conv.n_used}: {conv.stopped}"
             ] if conv.stopped else []
    neg = [i for i, yi in y.items() if yi <= 0]
    if neg:
        notes.append(f"nonpositive scaled moments at indices {neg}")
    lost = [i for i in raw if i not in beta]
    if lost:
        notes.append(f"beta_i outside double range, left out of beta, at "
                     f"indices {lost}")
    # Every stage serves at least one customer and lasts at least one
    # service time, so E[K] = 1 + s >= 1 and beta_1 >= gamma_{1,1}.
    junk = conv.converged and (s < 0 or beta1 < g11)
    if junk:
        notes.append(f"converged ladder rejected: a stage serves at least one "
                     f"customer and lasts at least one service time, but "
                     f"s = {s!r} and beta_1 = {beta1!r} against "
                     f"gamma_{{1,1}} = {g11!r}")
    return MgMomentSolution(
        lam=lam, beta=beta, y=y, s=s, beta1=beta1, n_used=conv.n_used,
        converged=conv.converged and not junk, assembly=assembly,
        convergence=conv, oracle=oracle, notes=notes)


def _series_cutoff(y: dict) -> list:
    """Moment indices to keep in the density series.

    The bracket multiplying y_k is bounded by 1 + k, so the series is cut at
    the first k with |y_k| (1 + k) below 1e-12.
    """
    return list(itertools.takewhile(
        lambda k: abs(y[k]) * (1 + k) >= _SERIES_TERM_TOL, sorted(y)))


def _density_series(sol: MgMomentSolution, model: MgModel):
    """The density of one solution as a function of a float array t.

    The polynomial in Gbar(t) is evaluated by Horner's rule.  pdf and sf see
    the whole array when they map it to an array of its shape, else one node
    at a time.
    """
    coef = [j * w for j, w in enumerate(sol.weights, start=1)]
    pdf, sf = model.service.pdf, model.service.sf

    def density(t):
        g, gbar = _on_nodes(pdf, t), _on_nodes(sf, t)
        poly = coef[-1]
        for c in reversed(coef[:-1]):
            poly = poly * gbar + c
        return g * poly

    return density


def stationary_density(sol: MgMomentSolution, model: MgModel, y):
    """Series form of the stationary stage-length density at y.

    Refuses unconverged solutions and negative or NaN y.  Returns a float for
    a scalar y, from the same evaluation on a 1-element array, else an array.
    """
    sol.require_converged("stationary_density")
    t = np.asarray(y, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("density argument must be >= 0")
    f = _density_series(sol, model)(np.atleast_1d(t))
    return f if t.ndim else float(f[0])


def mean_customers_per_stage(sol: MgMomentSolution) -> float:
    """E[K] = 1 + s: every stage serves its closing arrival plus s on average."""
    sol.require_converged("mean_customers_per_stage")
    return 1.0 + sol.s


def _exponential_count_pmf(sol: MgMomentSolution, model: MgModel,
                           k: int) -> float:
    """P(K = k) in closed form for exponential service.

    The min of j service times has rate j mu, so the density is the sum of
    exponentials w_j j mu e^{-j mu t}, each integrated against the Poisson
    weight in closed form, with a = lam + j mu:

        k >= 2:  w_j j mu lam^k / a^(k+1),  taken in log space as
                 w_j (j mu / a) exp(-k log1p(j mu / lam)),
        k = 1:   w_j j mu (1/a + lam/a^2).
    """
    lam, mu = model.lam, model.service.mu
    terms = []
    for j, w in enumerate(sol.weights, start=1):
        rate = j * mu
        a = lam + rate
        terms.append(w * rate * (1.0 / a + lam / (a * a)) if k == 1 else
                     w * rate / a * math.exp(-k * math.log1p(rate / lam)))
    return math.fsum(terms)


def stage_count_pmf(sol: MgMomentSolution, model: MgModel, k: int) -> float:
    """P(K = k): the conditional law of K integrated against the density.

    Conditional on a stage length y the next stage serves Poisson(lam y)
    customers for k >= 2 and 1 with the folded probability (1 + lam y) e^{-lam y}.
    For a law that carries a rate mu (exponential service) the series
    density is a finite sum of exponentials and the integral is taken in
    closed form.  Any other law integrates weight times density with the
    adaptive Gauss-Kronrod engine of distributions, up to where the tail
    falls below 1e-10 or the support ends; for k >= 2 the range is split at
    the weight's peak k/lam (at most 0.999 of the range), and the two pieces
    are added with math.fsum.
    """
    k = count(k, "customer count k", 1)
    sol.require_converged("stage_count_pmf")
    if model.mu is not None:
        return _exponential_count_pmf(sol, model, k)

    lam = model.lam
    y_max = support_end(model.service,
                        tail_support(model.service, _GRID_TAIL_EPS))
    density = _density_series(sol, model)
    log_fact = math.lgamma(k + 1)

    def integrand(t):
        if k == 1:
            weight = (1.0 + lam * t) * np.exp(-lam * t)
        else:
            with np.errstate(divide="ignore"):  # log(0) weighs t = 0 by 0
                weight = np.exp(k * np.log(lam * t) - lam * t - log_fact)
        return weight * density(t)

    return piecewise_integral(integrand, [0.0, y_max] if k == 1 else
                              [0.0, min(y_max * 0.999, k / lam), y_max])


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
                        y_max: Optional[float] = None) -> FixedPointDensity:
    """Iterate f <- integral f(x) q(x, .) dx on a trapezoid grid from f0 = g.

    The mass is renormalized to one after each sweep (the kernel rows already
    integrate to one, so this only removes quadrature error).  It stops once
    a sweep changes f by less than 1e-10 in sup norm; after 500 sweeps it
    returns converged=False with the last change, and does not raise.
    """
    n_points = count(n_points, "n_points", 2)
    if y_max is None:
        y_max = tail_support(model.service, _GRID_TAIL_EPS)
    elif float(model.service.sf(positive(y_max, "y_max"))) >= _GRID_TAIL_EPS:
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
    for it in range(1, _FIXED_POINT_MAX_ITER + 1):
        nxt = (f * w) @ q
        nxt = nxt / float(nxt @ w)
        last_change = float(np.abs(nxt - f).max())
        f = nxt
        if last_change < _FIXED_POINT_TOL:
            converged = True
            break
    return FixedPointDensity(y=grid, f=f, iterations=it,
                             last_change=last_change, converged=converged,
                             y_max=y_max)
