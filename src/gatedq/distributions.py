"""Service-time and interarrival-time laws, and the moment functionals on them.

Two families of inputs drive everything downstream:

* a service law with density g, cdf G and tail Gbar = 1 - G, from which the
  analysis needs the "min moments"

      gamma_{m,k} = E[ min(sigma_1, ..., sigma_k)^m ],

  i.e. raw moments of the minimum of k independent service times.  For an
  exponential law with rate mu the minimum of k draws is exponential with
  rate k*mu, so gamma_{m,k} = m! / (k*mu)^m in closed form.  For a general
  law we use the tail identity

      E[ min(...)^m ] = integral_0^inf m y^{m-1} Gbar(y)^k dy,

  which needs only the tail function and stays stable for large k.

* a renewal interarrival law with Laplace transform Bhat(s) = E[exp(-s tau)],
  first moment E[tau] and second moment E[tau^2].  Poisson arrivals have
  Bhat(s) = lambda/(lambda+s); deterministic spacing c has Bhat(s) = exp(-s c).

Both kinds of distribution are immutable after construction.

Every integral of the package comes from one adaptive Gauss-Kronrod engine:
QUADPACK's 21-point qk21 rule and error estimate, written with numpy arrays.
It takes its integrand as a function of a node array and of the index of
each node's integral, and advances all its integrals in the same array
rounds: each round bisects the panels with large error estimates in all
unfinished integrals at once.  The min moments of a general law integrate
every requested (m, k) entry octave by octave and call the law's tail once
on a round's new distinct nodes; validate() integrates the density and
mgqueue the stage-count pmf.  A user callable that maps a node array to an
array of its shape is called on the array; any other is called node by
node.  As in QUADPACK, a first pass whose error estimate equals resasc has
saturated and is refined, not accepted: without that rule a panel that
straddles a jump of the density (uniform service, say) can pass with a
wrong value.

A min moment is positive for any law with mass above 0, so an entry whose
octaves all read 0.0 missed its mass between the nodes of [0, 1]; it is
integrated again on the dyadic sub-octaves of [0, 1], and refused when it
still reads 0.0 there.

A GammaTable memoizes two things for one service law: the gamma_{m,k}
entries, which system assembly and the dominance report read more than once
and compute a block at a time, and the clamped tail max(Gbar(y), 0) at every
quadrature node.  The entries live in one float64 array indexed [m, k] that
holds NaN where an entry is not computed, so a block of entries is one
fancy-index gather, and only a gather that finds NaN takes the fill path.
The node memo pays because every integral refines its octaves by
bisection, so the entries of a law sample Gbar at the same dyadic
Gauss-Kronrod nodes and a user cdf is called once per distinct node.  An
entry's value depends on the law, m and k alone, not on the block it was
computed in.  Since the entries do not depend on the arrival rate, each law
carries one table, built on first use (ServiceDistribution.gamma_table):
every solve of a law after its first reads the entries it shares with
earlier solves from that table, and the table is freed with its law.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OutOfRegimeError, count, positive


# bench/spans.py, the external tracer, reads and replaces this attribute when
# it installs; no quadrature uses it.  It goes when the tracer does.
integrate = None

# Bisection steps of the inversion sampler for a law without a sampler.
_INVERSION_STEPS = 60


class DivergentMomentError(OutOfRegimeError):
    """A requested moment integral fails to converge: out of regime."""


def _exponential_law(mu: float) -> tuple:
    """pdf, cdf and sf of the exponential law with rate mu, which read 0, 0
    and 1 below 0.  Each maps an array to an array and a scalar to a float."""
    def on_halfline(expr, below):
        def fn(y):
            y = np.asarray(y, dtype=float)
            out = np.where(y < 0, below, expr(np.maximum(y, 0.0)))
            return out if out.ndim else float(out)
        return fn

    return (on_halfline(lambda t: mu * np.exp(-mu * t), 0.0),
            on_halfline(lambda t: -np.expm1(-mu * t), 0.0),
            on_halfline(lambda t: np.exp(-mu * t), 1.0))


@dataclass(frozen=True)
class ServiceDistribution:
    """A service-time law: the callables it carries, and its rate if it has one.

    pdf and cdf are required.  An exact tail sf(y) = 1 - G(y) is optional;
    without one the tail is 1 - cdf(y), which rounds to zero once the cdf
    rounds to one.  moment(m) is optional; without one a raw moment is the
    min moment gamma_{m,1}.  A sampler (rng, size) -> ndarray is optional;
    without one, sampling inverts the cdf numerically.  mu is set for an
    exponential law only, and the closed forms downstream are picked by it.
    exponential() and from_callables() fill in the same fields.

    gamma_table is the law's one GammaTable, built on first use and kept
    for the life of the law; moment() and the M/G solves read the law's min
    moments through it (min_moment stays memo-free).  To free its entries,
    drop the law.
    """

    _pdf: Callable
    _cdf: Callable
    _sf: Optional[Callable] = None
    _moment: Optional[Callable] = None
    _sampler: Optional[Callable] = None
    mu: Optional[float] = None
    name: str = ""

    @classmethod
    def exponential(cls, mu: float) -> "ServiceDistribution":
        positive(mu, "exponential rate mu")
        return cls(*_exponential_law(mu),
                   _sampler=lambda rng, size: rng.exponential(1.0 / mu, size),
                   mu=mu, name=f"exponential(mu={mu})")

    @classmethod
    def from_callables(cls, pdf, cdf, moment=None, sampler=None,
                       name: str = "user", sf=None) -> "ServiceDistribution":
        return cls(pdf, cdf, sf, moment, sampler, name=name)

    def pdf(self, y):
        return self._pdf(y)

    def cdf(self, y):
        return self._cdf(y)

    def sf(self, y):
        """Tail function Gbar(y) = 1 - G(y)."""
        if self._sf is not None:
            return self._sf(y)
        return 1.0 - self._cdf(y)

    @functools.cached_property
    def gamma_table(self) -> "GammaTable":
        # cached_property writes to the instance __dict__, which the frozen
        # dataclass's __setattr__ does not guard.
        return GammaTable(self)

    def moment(self, m: int) -> float:
        """Raw moment E[sigma^m]."""
        if self._moment is not None:
            return self._moment(m)
        return self.gamma_table.gamma(m, 1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self._sampler is not None:
            return self._sampler(rng, size)
        return self._sample_by_inversion(rng, size)

    def _sample_by_inversion(self, rng, size):
        # Bisection on the cdf; adequate for smoke tests of user laws.  The
        # cdf sees the whole array of draws at each bisection step when it
        # maps arrays to arrays, and one draw at a time otherwise.
        u = rng.random(size)
        hi = np.full(size, 1.0)
        for _ in range(200):
            need = _on_nodes(self.cdf, hi) < u
            if not np.any(need):
                break
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros(size)
        for _ in range(_INVERSION_STEPS):
            mid = 0.5 * (lo + hi)
            below = _on_nodes(self.cdf, mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _on_nodes(fn, nodes: np.ndarray) -> np.ndarray:
    """fn at every entry of the float array nodes: one call on the array when
    fn maps it to an array of its shape, else one call per node.  A user
    law only has to accept scalars."""
    try:
        out = fn(nodes)
    except (TypeError, ValueError):
        out = None
    if isinstance(out, np.ndarray) and out.shape == nodes.shape:
        return out.astype(float)
    return np.reshape([float(fn(y)) for y in nodes.ravel().tolist()],
                      nodes.shape)


@dataclass(frozen=True)
class ArrivalDistribution:
    """A renewal interarrival law: its mean, its Lorden constant
    b0 = E[tau^2] / (E[tau])^2, its Laplace transform s -> E[exp(-s tau)]
    and its sampler (rng, size) -> ndarray.

    lam is set for Poisson arrivals only and spacing for deterministic ones
    only, and the closed forms downstream are picked by them.  poisson(),
    deterministic() and from_callables() fill in the same fields; the named
    laws carry b0 exactly (2 and 1), so no rate or spacing is squared.
    """

    mean: float
    b0: float
    _laplace: Callable
    _sampler: Callable
    lam: Optional[float] = None
    spacing: Optional[float] = None
    name: str = ""

    @classmethod
    def poisson(cls, lam: float) -> "ArrivalDistribution":
        positive(lam, "arrival rate lam")
        return cls(1.0 / lam, 2.0, lambda s: lam / (lam + s),
                   lambda rng, size: rng.exponential(1.0 / lam, size),
                   lam=lam, name=f"poisson(lambda={lam})")

    @classmethod
    def deterministic(cls, c: float) -> "ArrivalDistribution":
        # c = 0 is representable so that validate() can flag it.
        return cls(c, 1.0, lambda s: math.exp(-s * c),
                   lambda rng, size: np.full(size, float(c)),
                   spacing=c, name=f"deterministic(c={c})")

    @classmethod
    def from_callables(cls, sampler, laplace, mean, second_moment,
                       name: str = "user") -> "ArrivalDistribution":
        # A zero mean is kept so that validate() can flag it.
        b0 = second_moment / mean ** 2 if mean else math.nan
        return cls(mean, b0, laplace, sampler, name=name)

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValueError(f"Laplace transform argument must be >= 0, got {s}")
        return self._laplace(s)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sampler(rng, size)


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the Kronrod abscissae on
# [-1, 1] from the outside in with their weights, the centre last.  The odd
# entries are the 10-point Gauss abscissae, whose weights are _WG.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208067640314,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# The 21 nodes of a panel as rows: the centre, then the ten left and the ten
# right abscissae.  Weights are columns that broadcast against the rows.
_OFFSETS = np.array([0.0] + [-x for x in _XGK[:10]] + list(_XGK[:10]))[:, None]
_W_KRONROD = np.array([_WGK[10]] + list(_WGK[:10]) * 2)[:, None]
_W_GAUSS = np.array(
    [0.0] + [_WG[j // 2] if j % 2 else 0.0 for j in range(10)] * 2)[:, None]
_GAUSS_ROWS = np.flatnonzero(_W_GAUSS)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)

_QUAD_ABS_TOL = 1e-12
_QUAD_REL_TOL = 1e-11
_TAIL_EPS = 1e-14
_MAX_PANELS = 200      # panels per octave, QUADPACK's limit
_MAX_EXTENSIONS = 24   # octaves past the tail support
_SPLIT = 0.1           # bisect panels with this share of the worst error
_CHUNK = 256           # panels per integrand array; bounds the working set
_SPANS = 512           # integrals per engine call; bounds the panel state
_SUB_ROUND = 16        # dyadic sub-octaves of [0, 1] per round of _below_one


def _clamped_sf(d: ServiceDistribution, y: float) -> float:
    # A user cdf evaluated near 1 leaves roundoff noise in 1 - cdf; clamp so
    # the tail cannot dip below zero.
    return max(float(d.sf(y)), 0.0)


def _memo_tail(d: ServiceDistribution, memo: dict, y: float) -> float:
    """Clamped tail at one node, computed once per node through memo."""
    val = memo.get(y)
    if val is None:
        val = memo[y] = _clamped_sf(d, y)
    return val


def _memo_tails(d: ServiceDistribution, memo: dict,
                nodes: np.ndarray) -> np.ndarray:
    """Clamped tails at an array of nodes, each distinct node looked up in
    memo once; sf sees only the nodes new to memo, all in one call."""
    uniq, inv = np.unique(nodes, return_inverse=True)
    # Clamped tails are never negative, so -1 marks a node memo lacks.
    vals = np.fromiter(map(memo.get, uniq.tolist(), itertools.repeat(-1.0)),
                       float, len(uniq))
    missing = np.flatnonzero(vals < 0.0)
    if len(missing):
        fresh = np.maximum(_on_nodes(d.sf, uniq[missing]), 0.0)
        memo.update(zip(uniq[missing].tolist(), fresh.tolist()))
        vals[missing] = fresh
    return vals[inv].reshape(nodes.shape)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of a 2-D array, added from the top down as a running
    sum does, so that each column's sum depends on that column alone."""
    return np.add.accumulate(rows, axis=0)[-1]


def _qk21(f: np.ndarray, hlgth: np.ndarray) -> tuple:
    """QUADPACK's qk21 on panels whose 21 node values are the columns of f.

    Returns (result, abserr, resasc) per panel.
    """
    wf = _W_KRONROD * f
    resk = _row_sum(wf)
    resg = _row_sum(_W_GAUSS[_GAUSS_ROWS] * f[_GAUSS_ROWS])
    np.abs(wf, out=wf)
    resabs = _row_sum(wf)
    f = np.abs(f - 0.5 * resk)
    f *= _W_KRONROD
    resasc = _row_sum(f)
    dhlgth = np.abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.minimum(1.0, 200.0 * err / resasc)
    err = np.where((resasc != 0.0) & (err != 0.0),
                   resasc * (ratio * np.sqrt(ratio)), err)
    err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                   np.maximum(50.0 * _EPMACH * resabs, err), err)
    return resk * hlgth, err, resasc


def _panels(integrand, idx, a, b) -> tuple:
    """qk21 sums of integrand on the panels [a, b] of the integrals idx, one
    per entry of the arrays idx, a, b.

    integrand(nodes, idx) takes the 21 nodes of each of n panels as the
    columns of a (21, n) array, and the index of each panel's integral, and
    returns (values, stop): the integrand at the nodes, and a flag per panel
    that ends its integral.  It sees _CHUNK panels at a time, which bounds
    the working set.  Returns (result, abserr, resasc, stop).
    """
    out = [np.empty(len(a)) for _ in range(3)] + [np.empty(len(a), bool)]
    for s in range(0, len(a), _CHUNK):
        part = slice(s, s + _CHUNK)
        half = 0.5 * (b[part] - a[part])
        f, out[3][part] = integrand(0.5 * (a[part] + b[part]) + half * _OFFSETS,
                                    idx[part])
        with np.errstate(over="ignore", invalid="ignore"):
            # A stopped panel's values may hold inf, and its sums nan.
            sums = _qk21(f, half)
        for dst, val in zip(out, sums):
            dst[part] = val
    return tuple(out)


def _gauss_kronrod(integrand, lo, hi, abs_tol: float = _QUAD_ABS_TOL) -> tuple:
    """Adaptive qk21 integrals of integrand over [lo[i], hi[i]], one per
    entry of the float arrays lo, hi; integrand is as in _panels.

    All unfinished integrals advance in the same rounds.  A round bisects
    every panel whose error estimate is at least _SPLIT of its integral's
    worst, and an integral finishes when its summed estimate meets
    max(abs_tol, 1e-11 |value|), when it holds _MAX_PANELS panels, when a
    panel it would bisect is too short to halve, or when its value stops
    being finite or a panel's stop flag is set.  As in QUADPACK, a first
    pass is not accepted when its estimate equals resasc: the estimate
    saturated, which happens when a panel straddles a jump of the
    integrand.  The panels of one integral keep an order that its own
    refinement fixes, and its sums run in that order, so its value does not
    depend on the other integrals.  Returns (value, error, stopped) arrays.
    """
    n = len(lo)
    value, error = np.zeros(n), np.zeros(n)
    stopped = np.zeros(n, bool)
    pid, a, b = np.arange(n), lo, hi
    res, err, asc, stops = _panels(integrand, pid, a, b)
    saturated = (err == asc) & (err != 0.0)
    while len(pid):
        count = np.bincount(pid, minlength=n)
        area = np.bincount(pid, res, n)
        errsum = np.bincount(pid, err, n)
        stop = np.bincount(pid, stops, n) > 0
        worst = np.zeros(n)
        with np.errstate(invalid="ignore"):  # nan sums end their integral
            np.maximum.at(worst, pid, err)
        pick = err >= _SPLIT * worst[pid]
        mid = 0.5 * (a + b)
        tiny = pick & (np.maximum(np.abs(a), np.abs(b))
                       <= (1.0 + 100.0 * _EPMACH) * (np.abs(mid) + 1e3 * _UFLOW))
        room = _MAX_PANELS - count
        ok = (errsum <= np.maximum(abs_tol, _QUAD_REL_TOL * np.abs(area))
              ) & ~saturated
        done = (count > 0) & (ok | stop | ~np.isfinite(errsum) | (room <= 0)
                              | (np.bincount(pid, tiny, n) > 0))
        value[done], error[done], stopped[done] = (
            area[done], errsum[done], stop[done])
        saturated[:] = False
        live = ~done[pid]
        pick &= live
        wanted = np.bincount(pid, pick, n)
        for g in np.flatnonzero(~done & (wanted > room)):
            # Near the panel limit only the largest errors are bisected.
            cand = np.flatnonzero(pick & (pid == g))
            pick[cand[np.argsort(-err[cand], kind="stable")[room[g]:]]] = False
        if not pick.any():
            break
        keep = live & ~pick
        ca = np.concatenate((a[pick], mid[pick]))
        cb = np.concatenate((mid[pick], b[pick]))
        cpid = np.concatenate((pid[pick], pid[pick]))
        cres, cerr, _, cstops = _panels(integrand, cpid, ca, cb)
        pid = np.concatenate((pid[keep], cpid))
        a = np.concatenate((a[keep], ca))
        b = np.concatenate((b[keep], cb))
        res = np.concatenate((res[keep], cres))
        err = np.concatenate((err[keep], cerr))
        stops = np.concatenate((stops[keep], cstops))
    return value, error, stopped


def piecewise_integral(fn, cuts: list) -> float:
    """Integral of fn over [cuts[0], cuts[-1]]: one adaptive qk21 integral
    per piece [cuts[i], cuts[i+1]], all in the same rounds, added with
    math.fsum.  fn maps an array of nodes to the integrand there."""
    pieces, _, _ = _gauss_kronrod(
        lambda nodes, _idx: (fn(nodes), np.zeros(nodes.shape[1], bool)),
        np.array(cuts[:-1], dtype=float), np.array(cuts[1:], dtype=float))
    return math.fsum(pieces.tolist())


def _min_moment_integrand(d: ServiceDistribution, memo: dict, m, k):
    """m y^(m-1) T(y)^k for integral i at m[i], k[i], where T is the clamped
    tail from memo; a panel stops where y^(m-1) leaves double range."""
    def integrand(nodes, idx):
        tails = _memo_tails(d, memo, nodes)
        # Full exponent arrays keep np.power on one contiguous loop, so a
        # node's power is the same float whatever else is in the chunk.  An
        # overflowed power makes the panel's sums inf or nan; the stop flag,
        # not those sums, decides the entry.
        exps = np.empty(nodes.shape)
        exps[...] = m[idx] - 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.power(nodes, exps)
            overflow = np.isinf(f).any(axis=0)
            exps[...] = k[idx]
            f *= m[idx]
            f *= np.power(tails, exps)
        return f, overflow

    return integrand


def _overflow_error() -> OverflowError:
    # What y ** (m - 1) raises for a Python float y when it overflows.
    return OverflowError(34, "Numerical result out of range")


def _exponential_min_moment(mu: float, m: int, k: int) -> float:
    """m!/(k mu)^m, the exponential law's closed form of gamma_{m,k}."""
    try:
        return math.factorial(m) / (k * mu) ** m
    except (OverflowError, ZeroDivisionError):
        # m! or (k mu)^m is out of double range (a power that underflows
        # reads 0.0); finish in log space, saturating at inf.
        log_val = math.lgamma(m + 1) - m * math.log(k * mu)
        return math.exp(log_val) if log_val < 709.0 else math.inf


def _certified(d: ServiceDistribution, m: int, k: int, pieces: list,
               val: float):
    """val, or the error refusing it when its octave masses do not decay.

    A tail computed as 1 - cdf can vanish for the wrong reason: once the
    cdf rounds to 1, the integrand reads as zero no matter how heavy the
    true tail is.  A healthy cutoff is preceded by decaying octave masses;
    masses still growing (or flat) right before the drop mean the integral
    was cut off mid-climb and the value cannot be trusted.  An exact sf
    that reaches zero means the support really ended, so it skips this.
    """
    material = [p for p in pieces if abs(p) > 1e-6 * abs(val)]
    if (d._sf is None and len(material) >= 2
            and abs(material[-1]) > 0.9 * abs(material[-2])):
        return DivergentMomentError(
            f"cannot certify tail decay for m={m}, k={k}: octave masses "
            f"near the support edge are not shrinking "
            f"({material[-2]:.3e} then {material[-1]:.3e}); the moment may "
            f"diverge, or the tail is below cdf resolution")
    return val


def _min_moments(d: ServiceDistribution, pairs: list, memo: dict) -> dict:
    """gamma_{m,k} for every pair (m, k): its float, or the exception that
    entry raises.

    Each entry integrates m y^(m-1) Gbar(y)^k octave by octave, [0,1],
    [1,2], [2,4], ... through Y_max, the first power of two with
    Gbar(Y_max)^k < 1e-14, then keeps extending octave by octave until an
    addition stops mattering.  One _gauss_kronrod pass takes the octaves of
    all entries, and one more each further extension; passes over more than
    _SPANS integrals run in slices.  memo maps nodes to clamped tails and
    also serves tail_support's probes.
    """
    for m, k in pairs:
        count(m, "min moment order m", 1)
        count(k, "min moment count k", 1)
    if d.mu is not None:
        return {(m, k): _exponential_min_moment(d.mu, m, k) for m, k in pairs}
    out = {}
    tail = functools.partial(_memo_tail, d, memo)
    # The support can span many orders of magnitude, and a single adaptive
    # pass over [0, Y_max] would step right over a unit-scale bump, hence
    # the octaves; their masses double as a divergence monitor.  The first
    # call also takes the first octave past Y_max, which every entry that
    # passes the error gate integrates.
    jobs = {}
    for p in pairs:
        try:
            y_max = tail_support(d, _TAIL_EPS, p[1], tail)
        except DivergentMomentError as exc:
            out[p] = exc
            continue
        octaves = [(0.0, 1.0)]
        while octaves[-1][0] < y_max:
            octaves.append((octaves[-1][1], 2.0 * octaves[-1][1]))
        jobs[p] = octaves
    # Per entry: its octave masses, their running total, and how many of
    # them lie past Y_max.
    masses, total, extended = {}, {}, {}
    while jobs:
        vals, errs, overflows = _span_integrals(
            d, memo, [(m, k, lo, hi) for (m, k), octaves in jobs.items()
                      for lo, hi in octaves])
        at = 0
        for p, octaves in list(jobs.items()):
            m, k = p
            n = len(octaves)
            del jobs[p]
            val_p, err_p, ovf_p = (x[at:at + n]
                                   for x in (vals, errs, overflows))
            at += n
            if p not in masses:
                # The octaves through Y_max, then the first one past it.
                if any(ovf_p[:-1]):
                    out[p] = _overflow_error()
                    continue
                val = math.fsum(val_p[:-1])
                err = math.fsum(err_p[:-1])
                # The error gate is loose on purpose: tail noise from a
                # user-supplied cdf inflates the estimate long before it
                # moves the value, so only a catastrophic estimate
                # (comparable to the value itself) aborts here.
                if not math.isfinite(val) or err > max(1e-7, 1e-3 * abs(val)):
                    out[p] = DivergentMomentError(
                        f"min-moment quadrature failed for m={m}, k={k}: "
                        f"value={val}, error estimate={err}")
                    continue
                masses[p], total[p], extended[p] = val_p[:-1], val, 0
            if ovf_p[-1]:
                out[p] = _overflow_error()
                continue
            piece = val_p[-1]
            masses[p].append(piece)
            total[p] += piece
            extended[p] += 1
            lo = octaves[-1][1]
            if abs(piece) <= max(1e-12, 1e-9 * abs(total[p])):
                out[p] = _certified(d, m, k, masses[p], total[p])
            elif extended[p] == _MAX_EXTENSIONS:
                out[p] = DivergentMomentError(
                    f"min-moment integral for m={m}, k={k} keeps growing "
                    f"past Y={lo:.3e} (last octave mass {piece:.3e})")
            else:
                jobs[p] = [(lo, 2.0 * lo)]
    zeros = [p for p, val in out.items()
             if isinstance(val, float) and val == 0.0]
    if zeros:
        out.update(_below_one(d, zeros, memo))
    return out


def _span_integrals(d: ServiceDistribution, memo: dict, spans: list,
                    abs_tol: float = _QUAD_ABS_TOL) -> tuple:
    """Lists of the values, error estimates and overflow flags of the
    integrals of m y^(m-1) Gbar(y)^k over [lo, hi], one per span
    (m, k, lo, hi), in _gauss_kronrod passes of at most _SPANS integrals."""
    vals, errs, overflows = [], [], []
    for s in range(0, len(spans), _SPANS):
        m, k, lo, hi = (np.array(c, dtype=float)
                        for c in zip(*spans[s:s + _SPANS]))
        for acc, x in zip((vals, errs, overflows), _gauss_kronrod(
                _min_moment_integrand(d, memo, m, k), lo, hi, abs_tol)):
            acc.extend(x.tolist())
    return vals, errs, overflows


def _below_one(d: ServiceDistribution, pairs: list, memo: dict) -> dict:
    """gamma_{m,k} for entries whose octave integrals all read 0.0, or the
    error refusing them.

    gamma_{m,k} > 0 for any law with mass above 0, so such an entry missed
    its mass: every Gauss-Kronrod node of [0, 1] lies past the support, or
    y^(m-1) underflows at the nodes inside it.  The entry is integrated
    again on the dyadic sub-octaves [2^-(j+1), 2^-j] of [0, 1], _SUB_ROUND
    more per round, until a sub-octave adds less than 2^-53 of the running
    total.  The values are tiny, so each sub-octave is held to the relative
    tolerance alone, down to the smallest normal float.  An entry that
    still reads 0.0 once y^(m-1) leaves double range is refused: its value
    lies below double range, or its mass below quadrature resolution.
    """
    out = {}
    total = dict.fromkeys(pairs, 0.0)
    top = 0
    while total:
        spans = [(m, k, 2.0 ** -(j + 1), 2.0 ** -j) for m, k in total
                 for j in range(top, top + _SUB_ROUND)]
        vals = _span_integrals(d, memo, spans, _UFLOW)[0]
        top += _SUB_ROUND
        for n, p in enumerate(list(total)):
            pieces = vals[n * _SUB_ROUND:(n + 1) * _SUB_ROUND]
            total[p] += math.fsum(pieces)
            val = total[p]
            if val > 0.0 and pieces[-1] <= 0.5 * _EPMACH * val:
                out[p] = val
            elif top * max(p[0] - 1, 1) >= 1074:
                out[p] = val or DivergentMomentError(
                    f"min moment for m={p[0]}, k={p[1]} reads 0.0 on every "
                    f"dyadic sub-octave of [0, 1]: it lies below double "
                    f"range, or the law's mass below quadrature resolution")
            else:
                continue
            del total[p]
    return out


def tail_support(d: ServiceDistribution, eps: float, k: int = 1,
                 tail: Optional[Callable] = None) -> float:
    """Smallest probe point Y in 1, 2, 4, ... with Gbar(Y)^k below eps.

    tail(y) gives the clamped tail max(Gbar(y), 0); by default it calls
    d.sf.  A tail that refuses to decay signals a divergent moment.
    """
    positive(eps, "tail level eps")
    k = count(k, "min moment count k", 1)
    if tail is None:
        tail = functools.partial(_clamped_sf, d)
    y = 1.0
    for _ in range(120):
        if tail(y) ** k < eps:
            return y
        y *= 2.0
    raise DivergentMomentError(
        f"tail of {d.name or 'the service law'} does not fall below "
        f"{eps:g} for k={k}; moment integral diverges or converges too slowly")


def support_end(d: ServiceDistribution, y: float) -> float:
    """Where the clamped tail of d first reads exactly 0 in [0, y], else y.

    A tail that is still positive at y is returned as is.  Otherwise the end
    of the support is found by bisection down to adjacent floats, so that a
    quadrature can stop at a jump of the density instead of straddling it.
    """
    if _clamped_sf(d, positive(y, "support bound y")) > 0.0:
        return y
    lo, hi = 0.0, y
    mid = 0.5 * hi
    while lo < mid < hi:
        if _clamped_sf(d, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


def min_moment(d: ServiceDistribution, m: int, k: int) -> float:
    """gamma_{m,k} = E[min(sigma_1, ..., sigma_k)^m].

    Exponential laws use the closed form m!/(k mu)^m.  Everything else goes
    through the tail identity integral m y^(m-1) Gbar(y)^k dy, integrated
    octave by octave by the batched Gauss-Kronrod engine at absolute
    tolerance 1e-12, as the one-entry case of a GammaTable block.  A value
    that reads 0.0 is integrated again on the dyadic sub-octaves of [0, 1]
    (see _below_one).
    """
    val = _min_moments(d, [(m, k)], {})[(m, k)]
    if isinstance(val, Exception):
        raise val
    return val


def _indices(ms, ks) -> list:
    """ms and ks as integer arrays, each refused as errors.count refuses its
    first entry that is not an integer >= 1; a bool reads as 0 or 1."""
    out = []
    for x, what in ((ms, "min moment order m"), (ks, "min moment count k")):
        x = np.asarray(x)
        if x.dtype.kind not in "iu" or x.size and x.min() < 1:
            for v in x.ravel().tolist():
                count(v, what, 1)
            x = x.astype(int)
        out.append(x)
    return out


@dataclass
class GammaTable:
    """Memoized gamma_{m,k} entries for one service law, and the clamped
    tail max(Gbar(y), 0) at every quadrature node their integrals visit.
    A law's own table is its gamma_table; a table built by hand (a test's
    reference, say) shares nothing with it.

    The entries live in one float64 array indexed [m, k] (row and column 0
    unused), which holds NaN wherever an entry is not computed: not yet
    asked for, or failed.  No computed entry is NaN, so a block of entries
    is read with one gather and is complete when the gather holds no NaN.
    The array grows to the largest m and k asked for.  A block's missing
    entries are computed in one batch; an entry's value depends on the law,
    m and k alone, so it is the same float whichever block computes it.  An
    entry that fails stays NaN and is remembered with its exception.

    Writes to the array, and its growth, are guarded by a lock so a table
    shared between threads stays consistent.  A read takes no lock: it
    sees either an entry's value or NaN, and NaN sends it to the locked
    fill path, which computes only what is still missing there.  The node
    memo takes no lock either: each dict read and write is atomic and a
    value depends on its node alone, so a miss racing another thread's miss
    may compute the same tail twice, and both store the same float.
    """

    dist: ServiceDistribution
    _values: np.ndarray = field(
        default_factory=lambda: np.full((1, 1), np.nan), repr=False)
    _failed: dict = field(default_factory=dict, repr=False)
    _tails: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _entries(self, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """gamma_{m,k} at every index pair of the broadcast integer arrays
        m, k.

        The missing entries are computed in one batch.  If any pair fails,
        the entries that succeeded are stored first, and then the first
        failing pair in the C order of the broadcast raises its exception.
        """
        vals = self._held(m, k)
        if vals is not None:
            return vals
        m, k = np.broadcast_arrays(m, k)
        shape, m, k = m.shape, m.ravel(), k.ravel()
        if not m.size:
            return np.empty(shape)
        pairs = list(zip(m.tolist(), k.tolist()))
        with self._lock:
            rows, cols = self._values.shape
            inside = (m < rows) & (k < cols)
            held = np.zeros(m.shape, bool)
            held[inside] = ~np.isnan(self._values[m[inside], k[inside]])
            todo = [p for p in dict.fromkeys(
                        map(pairs.__getitem__, np.flatnonzero(~held).tolist()))
                    if p not in self._failed]
        found = _min_moments(self.dist, todo, self._tails) if todo else {}
        with self._lock:
            # Failed pairs widen the store too, so the gather below stays
            # inside it and reads them as NaN.
            self._grow(int(m.max()), int(k.max()))
            done = []
            for p, val in found.items():
                if not isinstance(val, Exception) and math.isnan(val):
                    # NaN marks a missing entry, so it cannot be stored.
                    val = DivergentMomentError(
                        f"min moment for m={p[0]}, k={p[1]} is NaN")
                if isinstance(val, Exception):
                    self._failed[p] = val
                else:
                    done.append(p)
            if done:
                rows, cols = np.array(done).T
                self._values[rows, cols] = [found[p] for p in done]
        vals = self._values[m, k]
        failed = np.flatnonzero(np.isnan(vals))
        if len(failed):
            raise self._failed[pairs[failed[0]]].with_traceback(None)
        return vals.reshape(shape)

    def _held(self, m, k) -> Optional[np.ndarray]:
        """gamma_{m,k} at every index pair of the broadcast arrays m, k of
        integers >= 1 when the table holds all of them, else None; computes
        nothing."""
        try:
            vals = self._values[m, k]
        except IndexError:  # past the store
            return None
        return None if np.isnan(vals).any() else vals

    def __contains__(self, p) -> bool:
        """Whether the table holds entry p = (m, k)."""
        m, k = p
        rows, cols = self._values.shape
        return 0 < m < rows and 0 < k < cols and not math.isnan(
            self._values[m, k])

    def _grow(self, m: int, k: int) -> None:
        """Widen the store, under the lock, to hold index [m, k]."""
        rows, cols = self._values.shape
        if m >= rows or k >= cols:
            store = np.full((max(m + 1, rows), max(k + 1, cols)), np.nan)
            store[:rows, :cols] = self._values
            self._values = store

    @property
    def _cache(self) -> "GammaTable":
        # bench/spans.py's hit counter asks `(m, k) in table._cache`; the
        # table itself answers.
        return self

    def gamma(self, m: int, k: int) -> float:
        return float(self._entries(*_indices(m, k)))

    def gammas(self, ms, ks) -> np.ndarray:
        """gamma_{m,k} at every index pair of the broadcast arrays ms, ks.

        Every read refuses an index that is not an integer >= 1 with the
        ValueError of errors.count.  For exponential laws the indices read
        the closed form directly, the same floats the table would store,
        without taking the lock or storing them; a NaN value takes the
        table's path and its refusal.
        """
        m, k = _indices(ms, ks)
        if self.dist.mu is not None:
            m, k = np.broadcast_arrays(m, k)
            vals = np.reshape([_exponential_min_moment(self.dist.mu, p, q)
                               for p, q in zip(m.ravel().tolist(),
                                               k.ravel().tolist())], m.shape)
            if not np.isnan(vals).any():
                return vals
        return self._entries(m, k)

    def ratio(self, m: int, k: int) -> float:
        return float(self.ratios(m, k))

    def ratios(self, ms, ks) -> np.ndarray:
        """gamma_{m,k} / gamma_{m,1}, always in [0, 1], at every index pair
        of the broadcast arrays ms, ks.

        For exponential laws this is k^-m exactly, which stays representable
        long after the two moments themselves overflow.  A block the table
        holds is read as two plain gathers, of gamma_{m,k} and gamma_{m,1};
        any other block is filled in one batch.  A gamma_{m,1} of 0.0 raises
        ZeroDivisionError, as a float division does.
        """
        m, k = _indices(ms, ks)
        if self.dist.mu is not None:
            # Python's float power, not numpy's: the two differ in the last
            # bit for some (m, k).
            m, k = np.broadcast_arrays(m, k)
            return np.reshape([float(q) ** -p for p, q in zip(
                m.ravel().tolist(), k.ravel().tolist())], m.shape)
        gamma = self._held(m, k)
        first = self._held(m, 1) if gamma is not None else None
        if first is None:
            # Each (m, k) is read beside its (m, 1): failures raise in order.
            both = self._entries(m[..., None],
                                 np.stack((k, np.ones_like(k)), axis=-1))
            gamma, first = both[..., 0], both[..., 1]
        if not first.all():
            raise ZeroDivisionError("float division by zero")
        return gamma / first


@dataclass
class ValidationReport:
    """Report-only diagnostics for a distribution; never raises."""

    subject: str
    ok: bool
    issues: list
    normalization_defect: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "issues": list(self.issues),
            "normalization_defect": self.normalization_defect,
        }


def validate(d) -> ValidationReport:
    """Probe a distribution for the structural properties the solvers assume.

    Service laws: density normalization, G(0)=0, monotone cdf, an exact tail
    (when given) that matches 1 - cdf, finite low moments.  Arrival laws:
    Bhat(0)=1, Bhat decreasing, Bhat in (0,1) for s>0, E[tau]>0 and the
    Jensen inequality E[tau^2] >= (E[tau])^2.
    """
    issues = []
    defect = None
    if isinstance(d, ServiceDistribution):
        try:
            y_max = tail_support(d, _TAIL_EPS)
            mass = piecewise_integral(functools.partial(_on_nodes, d.pdf),
                                      [0.0, y_max])
            defect = abs(1.0 - mass)
            if defect > 1e-6:
                issues.append(f"density integrates to {mass:.6g}, defect {defect:.3g}")
        except DivergentMomentError as exc:
            issues.append(str(exc))
            y_max = 50.0
        if abs(float(d.cdf(0.0))) > 1e-9:
            issues.append(f"G(0) = {float(d.cdf(0.0)):.3g}, expected 0")
        grid = np.linspace(0.0, y_max, 257)
        cdf_vals = _on_nodes(d.cdf, grid)
        if np.any(np.diff(cdf_vals) < -1e-12):
            issues.append("cdf decreases somewhere on the probe grid")
        if d._sf is not None:
            gap = float(np.max(np.abs(_on_nodes(d.sf, grid) - (1.0 - cdf_vals))))
            if not gap <= 1e-9:
                issues.append(f"sf differs from 1 - cdf by up to {gap:.3g} "
                              "on the probe grid")
        for m in (1, 2):
            try:
                val = d.moment(m)
                if not math.isfinite(val):
                    issues.append(f"moment {m} is not finite")
            except DivergentMomentError as exc:
                issues.append(f"moment {m}: {exc}")
        subject = d.name or "service"
    elif isinstance(d, ArrivalDistribution):
        subject = d.name or "arrivals"
        if d.mean <= 0:
            issues.append(f"E[tau] = {d.mean}, must be positive")
        if d.b0 < 1.0 - 1e-12:
            issues.append("E[tau^2] < (E[tau])^2 violates Jensen")
        try:
            b_zero = d.laplace(0.0)
            if abs(b_zero - 1.0) > 1e-9:
                issues.append(f"Bhat(0) = {b_zero}, expected 1")
            probes = np.linspace(0.0, 20.0, 81)
            vals = np.array([d.laplace(float(s)) for s in probes])
            if np.any(np.diff(vals) > 1e-12):
                issues.append("Bhat increases somewhere on the probe grid")
            inner = vals[1:]
            if d.mean > 0 and (np.any(inner <= 0.0) or np.any(inner >= 1.0)):
                issues.append("Bhat(s) leaves (0,1) for s > 0 on the probe grid")
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            issues.append(f"Laplace transform probe failed: {exc}")
    else:
        raise TypeError(f"cannot validate object of type {type(d).__name__}")
    return ValidationReport(subject=subject, ok=not issues, issues=issues,
                            normalization_defect=defect)
