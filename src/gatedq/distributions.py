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

Both kinds of distribution are immutable after construction.  A GammaTable
memoizes two things for one service law: the gamma_{m,k} entries, which
system assembly and the dominance probe read more than once, and the clamped
tail max(Gbar(y), 0) at every quadrature node.  The node memo pays because
QUADPACK refines each octave by bisection, so the integrals of all entries
of a law sample Gbar at the same dyadic Gauss-Kronrod nodes; a user cdf is
then called once per distinct node instead of once per node per entry.
The quadratures reach scipy.integrate through the module attribute
integrate, which is imported on first access, so a program that only uses
exponential laws never loads scipy.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def __getattr__(name: str):
    """The module attribute integrate is scipy.integrate, imported on first
    access: only the quadratures of general laws need it."""
    global integrate
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _integrate():
    """The module attribute integrate, which a caller may have replaced."""
    return getattr(sys.modules[__name__], "integrate")


class DivergentMomentError(ValueError):
    """Raised when a requested moment integral fails to converge."""


_QUAD_ABS_TOL = 1e-12
_TAIL_EPS = 1e-14


@dataclass(frozen=True)
class ServiceDistribution:
    """A service-time law: density, cdf, tail, and moment access.

    kind is "exponential" (closed forms throughout) or "user" (callables
    supplied by the caller).  A user law may optionally carry a sampler
    (rng, size) -> ndarray; without one, sampling falls back to numeric
    inversion of the cdf.  It may also carry an exact tail sf(y) = 1 - G(y);
    without one the tail is 1 - cdf(y), which rounds to zero once the cdf
    rounds to one.
    """

    kind: str
    mu: Optional[float] = None
    _pdf: Optional[Callable] = None
    _cdf: Optional[Callable] = None
    _moment: Optional[Callable] = None
    _sampler: Optional[Callable] = None
    _sf: Optional[Callable] = None
    name: str = ""

    @classmethod
    def exponential(cls, mu: float) -> "ServiceDistribution":
        if mu <= 0:
            raise ValueError(f"exponential rate must be positive, got {mu}")
        return cls(kind="exponential", mu=mu, name=f"exponential(mu={mu})")

    @classmethod
    def from_callables(cls, pdf, cdf, moment=None, sampler=None,
                       name: str = "user", sf=None) -> "ServiceDistribution":
        return cls(kind="user", _pdf=pdf, _cdf=cdf, _moment=moment,
                   _sampler=sampler, _sf=sf, name=name)

    def pdf(self, y):
        if self.kind == "exponential":
            y = np.asarray(y, dtype=float)
            out = np.where(y < 0, 0.0, self.mu * np.exp(-self.mu * np.maximum(y, 0.0)))
            return out if out.ndim else float(out)
        return self._pdf(y)

    def cdf(self, y):
        if self.kind == "exponential":
            y = np.asarray(y, dtype=float)
            out = np.where(y < 0, 0.0, -np.expm1(-self.mu * np.maximum(y, 0.0)))
            return out if out.ndim else float(out)
        return self._cdf(y)

    def sf(self, y):
        """Tail function Gbar(y) = 1 - G(y)."""
        if self.kind == "exponential":
            y = np.asarray(y, dtype=float)
            out = np.where(y < 0, 1.0, np.exp(-self.mu * np.maximum(y, 0.0)))
            return out if out.ndim else float(out)
        if self._sf is not None:
            return self._sf(y)
        return 1.0 - self._cdf(y)

    def moment(self, m: int) -> float:
        """Raw moment E[sigma^m]."""
        if self.kind == "exponential":
            return math.factorial(m) / self.mu ** m
        if self._moment is not None:
            return self._moment(m)
        return min_moment(self, m, 1)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "exponential":
            return rng.exponential(1.0 / self.mu, size)
        if self._sampler is not None:
            return self._sampler(rng, size)
        return self._sample_by_inversion(rng, size)

    def _sample_by_inversion(self, rng, size, iters: int = 60):
        # Bisection on the cdf; adequate for smoke tests of user laws.  The
        # supplied cdf only has to accept scalars, like everywhere else; one
        # that maps an array to an array of its shape is called once per
        # bisection step for all draws instead of once per draw.
        cdf = (self.cdf if _maps_arrays(self.cdf)
               else np.vectorize(self.cdf, otypes=[float]))
        u = rng.random(size)
        hi = np.full(size, 1.0)
        for _ in range(200):
            need = cdf(hi) < u
            if not np.any(need):
                break
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros(size)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            below = cdf(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def _maps_arrays(fn) -> bool:
    """Whether fn maps a float array to an array of the same shape."""
    probe = np.array([0.5, 1.0])
    try:
        out = fn(probe)
    except (TypeError, ValueError):
        return False
    return isinstance(out, np.ndarray) and out.shape == probe.shape


@dataclass(frozen=True)
class ArrivalDistribution:
    """A renewal interarrival law with Laplace transform and two moments.

    kinds: "poisson" (exponential gaps, rate lam), "deterministic" (constant
    spacing c), "user" (sampler + Laplace transform + moments supplied).
    """

    kind: str
    lam: Optional[float] = None
    c: Optional[float] = None
    mean: float = 0.0
    second_moment: float = 0.0
    _laplace: Optional[Callable] = None
    _sampler: Optional[Callable] = None
    name: str = ""

    @classmethod
    def poisson(cls, lam: float) -> "ArrivalDistribution":
        if lam <= 0:
            raise ValueError(f"arrival rate must be positive, got {lam}")
        return cls(kind="poisson", lam=lam, mean=1.0 / lam,
                   second_moment=2.0 / lam ** 2, name=f"poisson(lambda={lam})")

    @classmethod
    def deterministic(cls, c: float) -> "ArrivalDistribution":
        # c = 0 is representable so that validate() can flag it.
        return cls(kind="deterministic", c=c, mean=c, second_moment=c ** 2,
                   name=f"deterministic(c={c})")

    @classmethod
    def from_callables(cls, sampler, laplace, mean, second_moment,
                       name: str = "user") -> "ArrivalDistribution":
        return cls(kind="user", mean=mean, second_moment=second_moment,
                   _laplace=laplace, _sampler=sampler, name=name)

    @property
    def b0(self) -> float:
        """Lorden constant E[tau^2] / (E[tau])^2 (2 for Poisson, 1 for deterministic)."""
        return self.second_moment / self.mean ** 2

    def laplace(self, s: float) -> float:
        if s < 0:
            raise ValueError(f"Laplace transform argument must be >= 0, got {s}")
        if self.kind == "poisson":
            return self.lam / (self.lam + s)
        if self.kind == "deterministic":
            return math.exp(-s * self.c)
        return self._laplace(s)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "poisson":
            return rng.exponential(1.0 / self.lam, size)
        if self.kind == "deterministic":
            return np.full(size, float(self.c))
        return self._sampler(rng, size)


def _clamped_sf(d: ServiceDistribution, y: float) -> float:
    # A user cdf evaluated near 1 leaves roundoff noise in 1 - cdf; clamp so
    # the tail cannot dip below zero.
    return max(float(d.sf(y)), 0.0)


def tail_support(d: ServiceDistribution, eps: float, k: int = 1,
                 tail: Optional[Callable] = None) -> float:
    """Smallest probe point Y in 1, 2, 4, ... with Gbar(Y)^k below eps.

    tail(y) gives the clamped tail max(Gbar(y), 0); by default it calls
    d.sf.  A tail that refuses to decay signals a divergent moment.
    """
    if tail is None:
        tail = functools.partial(_clamped_sf, d)
    y = 1.0
    for _ in range(120):
        if tail(y) ** k < eps:
            return y
        y *= 2.0
    raise DivergentMomentError(
        f"tail of {d.name or d.kind} does not fall below {eps:g} for k={k}; "
        "moment integral diverges or converges too slowly")


def support_end(d: ServiceDistribution, y: float) -> float:
    """Where the clamped tail of d first reads exactly 0 in [0, y], else y.

    A tail that is still positive at y is returned as is.  Otherwise the end
    of the support is found by bisection down to adjacent floats, so that a
    quadrature can stop at a jump of the density instead of straddling it.
    """
    if _clamped_sf(d, y) > 0.0:
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


def min_moment(d: ServiceDistribution, m: int, k: int,
               tail: Optional[Callable] = None) -> float:
    """gamma_{m,k} = E[min(sigma_1, ..., sigma_k)^m].

    Exponential laws use the closed form m!/(k mu)^m.  Everything else goes
    through the tail identity integral m y^(m-1) Gbar(y)^k dy on [0, Y_max],
    with Y_max grown by doubling until Gbar(Y_max)^k < 1e-14 and the
    quadrature run at absolute tolerance 1e-12.  tail(y) supplies the
    clamped tail max(Gbar(y), 0) at each node; by default it calls d.sf, and
    a GammaTable passes its node memo instead, which returns the same floats.
    """
    if m < 1 or k < 1:
        raise ValueError(f"min_moment needs m >= 1 and k >= 1, got m={m}, k={k}")
    if d.kind == "exponential":
        try:
            return math.factorial(m) / (k * d.mu) ** m
        except OverflowError:
            # Out of double range; finish in log space, saturating at inf.
            log_val = math.lgamma(m + 1) - m * math.log(k * d.mu)
            return math.exp(log_val) if log_val < 709.0 else math.inf
    integrate = _integrate()
    if tail is None:
        tail = functools.partial(_clamped_sf, d)
    y_max = tail_support(d, _TAIL_EPS, k, tail)

    def integrand(y):
        return m * y ** (m - 1) * tail(y) ** k

    # The support can span many orders of magnitude, and a single adaptive
    # pass over [0, y_max] will step right over a unit-scale bump.  Integrate
    # octave by octave instead: [0,1], [1,2], [2,4], ... through the first
    # power of two at or past y_max, then keep extending until the additions
    # stop mattering.  The per-octave masses double as a divergence monitor.
    # full_output=1 makes quad return its warnings instead of issuing them;
    # the error gate below judges the estimates.
    pieces, errs = [], []
    lo, hi = 0.0, 1.0
    while lo < y_max:
        v, err = integrate.quad(integrand, lo, hi, epsabs=_QUAD_ABS_TOL,
                                epsrel=1e-11, limit=200, full_output=1)[:2]
        pieces.append(v)
        errs.append(err)
        lo, hi = hi, 2.0 * hi
    val = math.fsum(pieces)
    err = math.fsum(errs)
    # The error gate is loose on purpose: tail noise from a user-supplied
    # cdf inflates the estimate long before it moves the value, so only a
    # catastrophic estimate (comparable to the value itself) aborts here.
    if not math.isfinite(val) or err > max(1e-7, 1e-3 * abs(val)):
        raise DivergentMomentError(
            f"min-moment quadrature failed for m={m}, k={k}: "
            f"value={val}, error estimate={err}")
    for _ in range(24):
        piece = integrate.quad(integrand, lo, hi, epsabs=_QUAD_ABS_TOL,
                               epsrel=1e-11, limit=200, full_output=1)[0]
        pieces.append(piece)
        val += piece
        lo, hi = hi, 2.0 * hi
        if abs(piece) <= max(1e-12, 1e-9 * abs(val)):
            break
    else:
        raise DivergentMomentError(
            f"min-moment integral for m={m}, k={k} keeps growing past "
            f"Y={lo:.3e} (last octave mass {piece:.3e})")
    # A tail computed as 1 - cdf can vanish for the wrong reason: once the
    # cdf rounds to 1, the integrand reads as zero no matter how heavy the
    # true tail is.  A healthy cutoff is preceded by decaying octave masses;
    # masses still growing (or flat) right before the drop mean the integral
    # was cut off mid-climb and the value cannot be trusted.  An exact sf
    # that reaches zero means the support really ended, so it skips this.
    material = [p for p in pieces if abs(p) > 1e-6 * abs(val)]
    if (d._sf is None and len(material) >= 2
            and abs(material[-1]) > 0.9 * abs(material[-2])):
        raise DivergentMomentError(
            f"cannot certify tail decay for m={m}, k={k}: octave masses "
            f"near the support edge are not shrinking "
            f"({material[-2]:.3e} then {material[-1]:.3e}); the moment may "
            f"diverge, or the tail is below cdf resolution")
    return val


@dataclass
class GammaTable:
    """Memoized gamma_{m,k} entries for one service law, and the clamped
    tail max(Gbar(y), 0) at every quadrature node their integrals visit.

    The entry cache is guarded by a lock so a table shared between threads
    stays consistent; entries themselves are plain floats and immutable.  The
    node memo takes no lock: each dict read and write is atomic and a value
    depends on its node alone, so a miss racing another thread's miss may
    compute the same tail twice, and both store the same float.
    """

    dist: ServiceDistribution
    _cache: dict = field(default_factory=dict)
    _tails: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def tail(self, y: float) -> float:
        """Clamped tail max(Gbar(y), 0), computed once per node y."""
        val = self._tails.get(y)
        if val is None:
            val = self._tails[y] = _clamped_sf(self.dist, y)
        return val

    def gamma(self, m: int, k: int) -> float:
        key = (m, k)
        with self._lock:
            hit = self._cache.get(key)
        if hit is not None:
            return hit
        val = min_moment(self.dist, m, k, self.tail)
        with self._lock:
            self._cache[key] = val
        return val

    def ratio(self, m: int, k: int) -> float:
        """gamma_{m,k} / gamma_{m,1}, always in [0, 1].

        For exponential laws this is k^-m exactly, which stays representable
        long after the two moments themselves overflow.
        """
        if self.dist.kind == "exponential":
            return float(k) ** -m
        return self.gamma(m, k) / self.gamma(m, 1)


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
        integrate = _integrate()
        try:
            y_max = tail_support(d, _TAIL_EPS)
            mass, _ = integrate.quad(lambda y: float(d.pdf(y)), 0.0, y_max,
                                     epsabs=1e-10, limit=400)
            defect = abs(1.0 - mass)
            if defect > 1e-6:
                issues.append(f"density integrates to {mass:.6g}, defect {defect:.3g}")
        except DivergentMomentError as exc:
            issues.append(str(exc))
            y_max = 50.0
        if abs(float(d.cdf(0.0))) > 1e-9:
            issues.append(f"G(0) = {float(d.cdf(0.0)):.3g}, expected 0")
        grid = np.linspace(0.0, y_max, 257)
        cdf_vals = np.array([float(d.cdf(t)) for t in grid])
        if np.any(np.diff(cdf_vals) < -1e-12):
            issues.append("cdf decreases somewhere on the probe grid")
        if d._sf is not None:
            gap = float(np.max(np.abs(
                np.array([float(d.sf(t)) for t in grid]) - (1.0 - cdf_vals))))
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
        if d.second_moment < d.mean ** 2 - 1e-12:
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
