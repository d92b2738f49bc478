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
computed.  The remaining alternating sum is added exactly by math.fsum, but
the binomial weights cancel catastrophically for large i, so rounding the
terms themselves bounds its accuracy: a sum whose computed rounding bound
(i + j + 2) eps sum_k |term_k| exceeds 1e-6 is refused, which happens from
about i = 28 on for the first columns; simulate instead.)

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
i >= 2, which binds at i = 2 and holds for rho below about 0.256.  The
off-diagonal row sums have closed forms over every column, rho (zeta(2) - 1)
for row 1 and rho^{i/2-1} (zeta(i) + rho zeta(i+1) - (1 + rho/i) i^{-i}) for
row i >= 2, so the dominance report's sigma_i is exact for this system.  The
plain rows stay dominant up to rho about 0.3404 (row 2 binds); beyond that
the truncations still converge in practice and the report says honestly
that dominance failed.

Deterministic arrivals with spacing c have bhat_k = q^k, q = exp(-mu c), so
the entries of each row fall geometrically, and for every q < 1 a row's
math.fsum over a finite head of columns that adding a geometric bound on
the rest leaves unchanged is its sum over every column, correctly rounded:
sigma_i is exact there too.  In light traffic (q < 1/2) it is finite
however deep the row, and the column sums are finite; past it, assembled
by override, column 1's sum diverges, deep rows overflow and their report
is refused, as is a head too long to hold.  At every q, i |a_ii| -> 1, so
the inverse diagonals are not summable and the report is never satisfied.
An arrival law given by callables states no row sums, so its report is
unknown.

From a solved x-vector the stationary law is a signed mixture of geometric
laws, whose weights v_k = (-1)^{k-1} x_k every reader sums over:

    pi_i = sum_k v_k (1 - bhat_k) bhat_k^{i-1},
    phi(z) = z sum_k v_k (1 - bhat_k) / (1 - bhat_k z).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import linsys
from .distributions import ArrivalDistribution
from .errors import OutOfRegimeError, count, positive

_EPS = float(np.finfo(float).eps)
_ROUNDING_TOL = 1e-6
_PMF_TERM_TOL = 1e-14
_NEGATIVE_CLAMP = -1e-10
# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin tail of zeta.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510)
_ZETA_HEAD = 10
# A power whose log2 lies below this rounds to 0.0 whatever the error of
# the estimate: the smallest subnormal is 2^-1074.
_UNDERFLOW_LOG2 = -1100.0
_TINY = float(np.finfo(float).tiny)
# The most entries a head of exact deterministic row sums may hold (8 MiB of
# doubles).  Light-traffic heads up to order 2 000 hold at most 116 000.
_HEAD_CAP = 2 ** 20


@dataclass(frozen=True)
class GiModel:
    """Synchronized gated GI/M/inf model.

    rho = 1 / (mu E[tau]) is the offered load; b0 = E[tau^2]/(E[tau])^2 is
    the Lorden constant bounding the overshoot of the renewal process past
    the end of the active phase.  bhats fills one list of bhat_k = Bhat(k mu)
    in order, indexed by k from bhat_0 = 1, so each Bhat(k mu) runs once.
    """

    arrivals: ArrivalDistribution
    mu: float
    _bhat: list = field(default_factory=lambda: [1.0], init=False,
                        repr=False, compare=False)

    def __post_init__(self):
        positive(self.mu, "service rate mu")
        positive(self.arrivals.mean, "interarrival mean")

    @property
    def rho(self) -> float:
        return 1.0 / (self.mu * self.arrivals.mean)

    @property
    def b0(self) -> float:
        return self.arrivals.b0

    def bhat(self, k: int) -> float:
        """bhat_k = Bhat(k mu), memoized."""
        k = count(k, "bhat index k", 0)
        return self.bhats(k)[k]

    def bhats(self, n: int) -> list:
        """The model's own list of bhat_k by k, filled to k = n at least."""
        for k in range(len(self._bhat), count(n, "bhat index n", 0) + 1):
            # A slice store leaves index k right if a thread stored it first.
            self._bhat[k:k + 1] = [self.arrivals.laplace(k * self.mu)]
        return self._bhat


@dataclass
class GiMomentSolution(linsys.LadderSolution):
    """Scaled factorial moments x_m with solve diagnostics.

    weights holds the law's mixture weights v_k = (-1)^{k-1} x_k, and
    defect = |1 - sum_k v_k| the residual of the structural identity
    phi(0) = 0; it is reported, never re-imposed on the solution.
    For a general arrival law the oracle keeps the model and its memoized
    bhat_k alive (see linsys.LadderSolution).
    """

    x: dict

    @functools.cached_property
    def weights(self) -> tuple:
        return tuple(self.x[k] * (-1.0) ** (k - 1) for k in sorted(self.x))

    @property
    def defect(self) -> float:
        return abs(1.0 - math.fsum(self.weights))

    def to_dict(self) -> dict:
        return {
            "x": {str(m): float(v) for m, v in sorted(self.x.items())},
            "EK": float(self.x[1]),
            "defect": float(self.defect),
            **self._ladder_dict(),
        }


class LightTraffic(NamedTuple):
    ok: bool
    margin: float


def light_traffic_ok(model: GiModel) -> LightTraffic:
    """Whether bhat_1 < 1/2, with the margin 1/2 - bhat_1."""
    b1 = model.bhat(1)
    return LightTraffic(ok=b1 < 0.5, margin=0.5 - b1)


@functools.lru_cache(maxsize=None)
def _zeta(s: int) -> float:
    """Riemann zeta(s) for an integer s >= 2, memoized.

    Sums n^-s for n < 10 and adds the Euler-Maclaurin tail at N = 10 with
    Bernoulli terms through B_16, all in one math.fsum.  For s = 2..401 the
    result is the correctly rounded double (1.0 from s = 54 on).
    """
    n = _ZETA_HEAD
    terms = [k ** -s for k in range(1, n)]
    terms += [n ** (1 - s) / (s - 1), 0.5 * n ** -s]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, b in enumerate(_BERNOULLI, start=1):
        terms.append(b / math.factorial(2 * k) * rising * n ** (1 - s - 2 * k))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return math.fsum(terms)


def _binomial_sum(i: int, ops: int, weights) -> float:
    """math.fsum of C(i,k) (-1)^k w_k over k = 1..i, an OutOfRegimeError
    once rounding the terms can move it by more than _ROUNDING_TOL.

    Each term carries a relative rounding error below ops * eps, so
    ops * eps * sum |terms| bounds the error of the sum on the given bhat_k;
    the binomial weights make that bound grow like 2^i.
    """
    try:
        terms = [math.comb(i, k) * (-1.0) ** k * w
                 for k, w in enumerate(weights, start=1)]
    except OverflowError:  # C(i,k) past double range
        terms = [math.inf]
    bound = ops * _EPS * math.fsum(map(abs, terms))
    if not bound <= _ROUNDING_TOL:
        raise OutOfRegimeError(
            f"row i={i}: rounding the alternating binomial terms can move "
            f"the sum by {bound:.3g} in double arithmetic; estimate this "
            "row by simulation instead")
    return math.fsum(terms)


def transition_probability(model: GiModel, i: int, j: int) -> float:
    """P(K_next = j | K = i) for the customers-per-stage chain."""
    i, j = count(i, "state i", 1), count(j, "state j", 1)
    return _binomial_sum(i, i + j + 2, [bk ** (j - 1) * (bk - 1.0)
                                        for bk in model.bhats(i)[1:i + 1]])


def transition_row_mass(model: GiModel, i: int, head: int = 0) -> float:
    """sum_j P_ij with the tail beyond j = head summed as geometric series:
    sum_{j > head} bhat_k^(j-1) (bhat_k - 1) = -bhat_k^head.

    head = 0 collapses to the pure closed form sum_k C(i,k)(-1)^{k+1}.
    """
    i, head = count(i, "state i", 1), count(head, "head", 0)
    total = math.fsum(transition_probability(model, i, j)
                      for j in range(1, head + 1))
    return total + _binomial_sum(i, i + head + 1, [
        -bk ** head for bk in model.bhats(i)[1:i + 1]])


def _poisson_oracle(model: GiModel) -> linsys.CoefficientOracle:
    rho = model.rho

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        # Deep rows leave double range: rho^{-i/2}, i^i and j^i
        # overflow to inf, and the terms divided by them go to zero, or to
        # nan where the scale overflows too (rho > 1).
        with np.errstate(over="ignore", invalid="ignore"):
            row1 = np.where(j == 1, -(1.0 - rho),
                            (-1.0) ** (j - 1) * rho / (j * j))
            scale = rho ** (i / 2.0 - 1.0)
            diag = ((1.0 + rho / i) * (-1.0) ** (i - 1) * scale / (1.0 * i) ** i
                    - rho ** (-i / 2.0) / i)
            off = (-1.0) ** (j - 1) * (1.0 + rho / j) * scale / (1.0 * j) ** i
            return np.where(i == 1, row1, np.where(j == i, diag, off))

    def b(i):
        return np.where(np.asarray(i) == 1, -1.0, 0.0)

    def exact_row_sums(i):
        # Row 1: rho (zeta(2) - 1); row i >= 2: rho^{i/2-1} times
        # sum_{j != i} (1 + rho/j) j^{-i} = zeta(i) + rho zeta(i+1)
        # - (1 + rho/i) i^{-i}.
        i = np.asarray(i)
        s = np.maximum(i, 2).tolist()
        zeta = np.array([_zeta(k) for k in s])
        zeta_next = np.array([_zeta(k + 1) for k in s])
        with np.errstate(over="ignore"):
            rows = rho ** (i / 2.0 - 1.0) * (
                zeta + rho * zeta_next - (1.0 + rho / i) * (1.0 * i) ** -i)
        return (np.where(i == 1, rho * (_zeta(2) - 1.0), rows),
                rho < 1.0, rho < 1.0)

    def analytic_region() -> bool:
        if not rho < 6.0 / math.pi ** 2:
            return False
        worst = max(i * rho ** (i - 1) * (_zeta(i) + rho * _zeta(i + 1))
                    for i in range(2, 65))
        return bool(worst < 1.0)

    return linsys.CoefficientOracle(
        a=a, b=b, analytic_region=analytic_region,
        exact_row_sums=exact_row_sums, name=f"gi-poisson(rho={rho})")


def _power(base, exponent) -> np.ndarray:
    """base ** exponent, bit for bit, for float bases and integer exponents
    that broadcast against each other.

    An entry with a positive base whose exponent * log2(base) lies below
    -1100 is 0.0, and is written as 0.0 without calling pow: libm's pow
    takes a slow path for results that underflow.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        skip = (base > 0.0) & (exponent * np.log2(base) < _UNDERFLOW_LOG2)
    return np.power(base, exponent, out=np.zeros(skip.shape), where=~skip)


def _raw_a(bj, i) -> np.ndarray:
    """a_ij = bj^(i-1) / (1 - bj)^i; the caller silences numpy's warnings.

    A power below the normal range is a multiple of 2^-1074, so the quotient
    gains an absolute error up to 2^-1075 / (1 - bj)^i.  Such an entry takes
    the ratio form (bj / (1 - bj))^(i-1) / (1 - bj), finite for bj < 1/2,
    and good to (i + 2) eps while the ratio's power is normal, in two cases:
    where that absolute error can pass eps^2, because (1 - bj)^i < tiny /
    eps = 2^-970; and where the ratio's power is normal and bj^(i-1) lies
    below tiny / (2 (i + 2)), so that the quotient's relative error
    2^-1075 / bj^(i-1) could pass the ratio form's.  Every other entry is
    the plain quotient.
    """
    num, den = _power(bj, i - 1), (1.0 - bj) ** i
    a = np.asarray(num / den)
    # Both cases imply den < 1 / (2 (i + 2)), so only entries with
    # den (i + 2) < 1 are tried, a factor of 2 to spare: few in light traffic.
    tried = (np.minimum(num, den) < _TINY) & (den * (i + 2.0) < 1.0)
    if tried.any():
        bj, i, num, den = (np.broadcast_to(x, a.shape)[tried]
                           for x in (bj, i, num, den))
        power = _power(bj / (1.0 - bj), i - 1)
        ratio = (den < _TINY / _EPS) | (
            (power >= _TINY) & (num < _TINY / (2.0 * (i + 2))))
        a[tried] = np.where(ratio, power / (1.0 - bj), a[tried])
    return a


def _magnitudes(bj, i, j) -> tuple:
    """(a_ij of _raw_a, m_ij): m_ij = |entry| of the general rows off the
    diagonal, bj / (j (1 - bj)) in row 1 and a_ij / j below."""
    a_ij = _raw_a(bj, i)
    return a_ij, np.where(i == 1, bj / (j * (1.0 - bj)), a_ij / j)


def _general_oracle(model: GiModel) -> linsys.CoefficientOracle:
    """Factorial-moment system for a general interarrival transform.

    Unknowns are w_k = k x_k.  Row 1 is the structural identity written with
    the m = 1 equation folded in; rows m >= 2 keep the raw a_mk coefficients.
    Off the diagonal an entry is a sign times m_ij of _magnitudes.
    Deterministic arrivals (a law that carries a spacing) get exact row
    sums (see _spacing_row_sums); any other law states none, so its
    dominance report is unknown.
    """

    def a(i, j):
        i, j = np.asarray(i), np.asarray(j)
        bj = np.array(model.bhats(j.max(initial=0)))[j]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a_ij, m_ij = _magnitudes(bj, i, j)
            diag = np.where(i == 1, -(1.0 - 2.0 * bj) / (1.0 - bj),
                            ((-1.0) ** (i - 1) * a_ij - 1.0) / i)
            return np.where(j == i, diag, (-1.0) ** (j - 1) * m_ij)

    def b(i):
        return np.where(np.asarray(i) == 1, -1.0, 0.0)

    exact = None
    if model.arrivals.spacing is not None:
        exact = functools.partial(_spacing_row_sums, model)
    return linsys.CoefficientOracle(a=a, b=b, exact_row_sums=exact,
                                    name="gi-general")


def _spacing_row_sums(model: GiModel, i) -> tuple:
    """Exact off-diagonal row sums of the general rows for deterministic
    arrivals with q = bhat_1 < 1, in the linsys contract.

    Here bhat_j = q^j, so m_ij of _magnitudes falls from column j to j + 1
    by a factor below r = q^max(i-1, 1), and the columns past J sum to less
    than m_iJ r / (1 - r).  A row's math.fsum over its head of columns
    j != i up to J is final when adding that bound leaves it unchanged:
    rounding is monotone, so it is then the correctly rounded sum over
    every column.  The head doubles until every row's sum is final.  In
    light traffic every entry is finite (see _raw_a), and so is every sum.
    Past it, a deep row's first entries overflow to inf, and so does its
    sum; that sum is written as NaN, never +inf, since the row is finite but
    not representable, and dominance_report refuses it.

    The head starts at about 56 / -log2(q) columns.  A q that rounds to 1,
    and a head of more than _HEAD_CAP entries, raise OutOfRegimeError
    before that head is built.

    Column j sums to a finite value exactly when bhat_j < 1/2, so every
    column sum is finite in light traffic and column 1's is not past it.
    And i |a_ii| -> 1, so the 1/|a_ii| are never summable.
    """
    i = np.asarray(i)[:, None]
    q = model.bhat(1)
    if not q < 1.0:
        raise OutOfRegimeError(
            f"bhat(mu) = {q!r}: the deterministic rows do not fall from "
            "column to column, so no row sum is finite")
    r = q ** np.maximum(i - 1, 1)
    # Enough columns for rows 1 and 2, whose entries fall slowest: q^n
    # below 2^-56 (q = 0 takes two columns and no log).
    n = 2 + (math.ceil(-56.0 / math.log2(q)) if q > 0.0 else 0)
    while True:
        if len(i) * n > _HEAD_CAP:
            raise OutOfRegimeError(
                f"bhat(mu) = {q:.10g}: exact row sums of {len(i)} rows need "
                f"a head of {n} columns, more than {_HEAD_CAP} entries")
        j = np.arange(1, n + 1)
        bj = np.array(model.bhats(n))[j]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            terms = _magnitudes(bj, i, j)[1]
        bounds = (terms[:, -1:] * (r / (1.0 - r))).ravel().tolist()
        terms[i == j] = 0.0
        heads = terms.tolist()
        sums = [math.fsum(head) for head in heads]
        if all(math.fsum(head + [bound]) == total
               for head, bound, total in zip(heads, bounds, sums)):
            sums = np.array(sums)
            return np.where(np.isinf(sums), math.nan, sums), False, q < 0.5
        n *= 2


def factorial_oracle(model: GiModel, override: bool = False) -> linsys.CoefficientOracle:
    """Oracle for the factorial-moment system in unknowns w_i = i x_i.

    Refuses models with bhat_1 >= 1/2 (outside light traffic) unless the
    caller overrides.  Poisson arrivals (a law that carries a rate lam) get
    the rho^{-i/2}-scaled rows with exact off-diagonal row sums and the
    closed-form sufficient region; any other arrival law gets the raw
    assembly, with exact row sums for deterministic arrivals (a law that
    carries a spacing) and an unknown dominance report otherwise.
    """
    lt = light_traffic_ok(model)
    if not lt.ok and not override:
        raise OutOfRegimeError(
            f"bhat(mu) = {model.bhat(1):.4g} >= 1/2: outside the light-traffic "
            "region (pass override=True to assemble anyway)")
    if model.arrivals.lam is not None:
        return _poisson_oracle(model)
    return _general_oracle(model)


def solve_factorial_moments(model: GiModel, order: int = 25, tol: float = 1e-8,
                            n_max: Optional[int] = None,
                            override: bool = False) -> GiMomentSolution:
    """Solve the truncated factorial-moment system.

    Runs the doubling ladder from `order` up to n_max (default 4 * order)
    and maps the solved w back to x_m = w_m / m.
    """
    order = count(order, "order", 4)
    oracle = factorial_oracle(model, override=override)
    conv = linsys.converge(oracle, order, n_max or 4 * order, tol)

    x = {m: float(conv.values[m - 1]) / m for m in range(1, conv.n_used + 1)}
    notes = []
    neg = [m for m, xm in x.items() if xm <= 0]
    if neg:
        notes.append(f"nonpositive factorial moments at indices {neg}")
    return GiMomentSolution(x=x, n_used=conv.n_used, converged=conv.converged,
                            convergence=conv, oracle=oracle, notes=notes)


def stationary_pmf(sol: GiMomentSolution, model: GiModel, i: int) -> float:
    """pi_i as the signed sum of the geometric laws at i (see
    stationary_pmfs)."""
    i = count(i, "state i", 1)
    sol.require_converged("stationary_pmf")
    return stationary_pmfs(sol, model, (i,))[0]


def stationary_pmfs(sol: GiMomentSolution, model: GiModel, states) -> list:
    """pi_i at every state i of states, in order.

    Each k-sum is cut at the first term below 1e-14 in magnitude (or NaN).
    Truncation of an alternating series can leave harmless tiny negatives;
    values in [-1e-10, 0) are clamped to zero.  The coefficients
    v_k (1 - bhat_k) are formed once per call, and each term is Python's
    float power c_k * bhat_k ** (i - 1): numpy's power differs from it in
    the last bit for some entries.
    """
    sol.require_converged("stationary_pmfs")
    bhat = model.bhats(len(sol.weights))
    coef = [(v * (1.0 - bk), bk) for bk, v in zip(bhat[1:], sol.weights)]
    pmf = []
    for i in states:
        e = count(i, "state i", 1) - 1
        terms = []
        for c, bk in coef:
            term = c * bk ** e
            if not abs(term) >= _PMF_TERM_TOL:
                break
            terms.append(term)
        val = math.fsum(terms)
        pmf.append(0.0 if _NEGATIVE_CLAMP <= val < 0.0 else val)
    return pmf


def pmf_total_mass(sol: GiMomentSolution, model: GiModel) -> float:
    """sum_i pi_i = sum_k v_k: summing each geometric law over i first is
    exact term by term."""
    sol.require_converged("pmf_total_mass")
    return math.fsum(sol.weights)


def pgf(sol: GiMomentSolution, model: GiModel, z: float) -> float:
    """Probability generating function of the stationary customers-per-stage law."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"pgf argument must lie in [0, 1], got {z}")
    sol.require_converged("pgf")
    bhat = model.bhats(len(sol.weights))
    return z * math.fsum(v * (1.0 - bk) / (1.0 - bk * z)
                         for bk, v in zip(bhat[1:], sol.weights))
