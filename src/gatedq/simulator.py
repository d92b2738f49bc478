"""Discrete-event simulation of both gate mechanisms.

This is the independent oracle for every analytic output in the package.
Both simulators run the stage recursion literally, stage by stage:

  * gated M/G/inf: draw K service times and take their maximum M (no
    order-statistics shortcuts, so general service laws share the code
    path); count Poisson arrivals in (0, M]; if none arrived, the stage is
    extended by the memoryless residual until the next arrival and the next
    stage serves a single customer.
  * synchronized gated GI/M/inf: walk the renewal process until the first
    epoch strictly past M; the stage ends there, and the serve count for the
    next stage includes that closing arrival.

Randomness comes from a counter-based generator (Philox) with independent
substreams for arrivals and services, keyed by (seed, stream index), so
traces are bit-identical for a given seed and replications with different
seeds are independent without shared state.  Each law draws _CHUNK values
at a time from its substream.  The stage loops read those draws by index
from a list of Python floats, so they do scalar arithmetic without a numpy
scalar per draw; a chunk is converted to Python floats a block at a time,
only as far as the loops read it.  The rare refill of a list is the one
slow path (_refill).  The loops store each stage in reusable lists of
_BLOCK stages, which are copied into the trace's numpy columns when full,
so a run never holds more than _BLOCK stages as Python objects.

Stage lengths are recorded twice per record: m is the active phase (the
service maximum) and y is the full span including any waiting phase.  The
stationary density computed analytically describes the active phase, so
empirical_stats defaults to column="active"; pass column="total" for the
full stage span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .distributions import ArrivalDistribution, ServiceDistribution
from .errors import InsufficientDataError
from .giqueue import GiModel

_CHUNK = 1 << 16
# Draws converted to Python floats at a time, so a run that reads part of a
# chunk converts little more than that part; also the stages held in lists
# between copies into a trace's columns.
_BLOCK = 1 << 12
_N_BATCHES = 20


@dataclass(frozen=True)
class StageRecord:
    """One stage: index, full length y, active length m, serve count k.

    Invariants: k >= 1; y >= m, with y = m exactly when waiting_phase is
    false (M/G model); waiting_phase is always False for GI traces, where
    the stage by construction ends strictly after the active phase.
    """

    n: int
    y: float
    m: float
    k: int
    waiting_phase: bool


@dataclass
class StageTrace:
    """Columnar trace of a simulation run.

    The first burn_in records are kept (the trace is the full history) but
    excluded by the statistics layer.
    """

    y: np.ndarray
    m: np.ndarray
    k: np.ndarray
    waiting: np.ndarray
    seed: int
    burn_in: int
    model: str
    kind: str

    def __len__(self) -> int:
        return len(self.y)

    def record(self, i: int) -> StageRecord:
        return StageRecord(n=i, y=float(self.y[i]), m=float(self.m[i]),
                           k=int(self.k[i]), waiting_phase=bool(self.waiting[i]))

    def records(self) -> Iterator[StageRecord]:
        for i in range(len(self.y)):
            yield self.record(i)


def _substream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(rng: np.random.Generator, law) -> Iterator[list]:
    """The draws of law.sample(rng, _CHUNK), one chunk after another, as
    lists of at most _BLOCK Python floats; _CHUNK is read at each refill."""
    while True:
        chunk = np.asarray(law.sample(rng, _CHUNK), dtype=float)
        if not len(chunk):
            raise ValueError(f"the sampler of {law.name!r} returned no draws")
        for lo in range(0, len(chunk), _BLOCK):
            yield chunk[lo:lo + _BLOCK].tolist()


def _refill(blocks: Iterator[list], buf: list, pos: int, need: int) -> list:
    """buf[pos:] followed by the next draws of blocks, at least need in all."""
    buf = buf[pos:]
    while len(buf) < need:
        buf += next(blocks)
    return buf


def _buffers(n: int) -> tuple:
    """The empty y, m, k and waiting columns of an n-stage trace, and lists
    that hold those values for _BLOCK stages at a time."""
    columns = (np.empty(n), np.empty(n), np.empty(n, dtype=np.int64),
               np.zeros(n, dtype=bool))
    segments = ([0.0] * _BLOCK, [0.0] * _BLOCK, [0] * _BLOCK,
                [False] * _BLOCK)
    return columns, segments


def _flush(lo: int, n: int, columns: tuple, segments: tuple) -> None:
    """Copy the first n values of each segment into its column from lo on."""
    for column, segment in zip(columns, segments):
        column[lo:lo + n] = segment[:n]


def simulate_mg(lam: float, service: ServiceDistribution, n_stages: int,
                seed: int, burn_in: int = 1000) -> StageTrace:
    """Simulate the gated M/G/inf stage recursion.

    Stage t serves k_t customers in parallel; m_t is the largest of their
    service times; a ~ Poisson(lam * m_t) customers accumulate at the gate.
    If a = 0 the stage is extended by an Exp(lam) wait and the next stage
    serves the single customer whose arrival ended it.  k_0 = 1.
    """
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    arr_rng = _substream(seed, 0)
    poisson, exponential = arr_rng.poisson, arr_rng.exponential
    services = _blocks(_substream(seed, 1), service)
    wait_scale = 1.0 / lam

    columns, segments = _buffers(n_stages)
    y_seg, m_seg, k_seg, w_seg = segments
    svc, pos, n_svc = [], 0, 0
    k_cur = 1
    for lo in range(0, n_stages, _BLOCK):
        n = min(_BLOCK, n_stages - lo)
        for i in range(n):
            end = pos + k_cur
            if end > n_svc:
                svc = _refill(services, svc, pos, k_cur)
                pos, end, n_svc = 0, k_cur, len(svc)
            m_t = svc[pos] if k_cur == 1 else max(svc[pos:end])
            pos = end
            a = poisson(lam * m_t)
            m_seg[i] = m_t
            k_seg[i] = k_cur
            if a == 0:
                y_seg[i] = m_t + exponential(wait_scale)
                w_seg[i] = True
                k_cur = 1
            else:
                y_seg[i] = m_t
                w_seg[i] = False
                k_cur = a
        _flush(lo, n, columns, segments)
    y, m, k, waiting = columns
    return StageTrace(y=y, m=m, k=k, waiting=waiting, seed=seed,
                      burn_in=burn_in, kind="mg",
                      model=f"mg(lam={lam}, service={service.name})")


def simulate_gi(arrivals: ArrivalDistribution, mu: float, n_stages: int,
                seed: int, burn_in: int = 1000) -> StageTrace:
    """Simulate the synchronized gated GI/M/inf stage recursion.

    Services are Exp(mu).  The stage ends at the first renewal epoch
    strictly after the active phase; the count for the next stage includes
    that closing arrival.  k_0 = 1.
    """
    if mu <= 0:
        raise ValueError(f"service rate must be positive, got {mu}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    gaps = _blocks(_substream(seed, 0), arrivals)
    services = _blocks(_substream(seed, 1),
                       ServiceDistribution.exponential(mu))

    columns, segments = _buffers(n_stages)
    y_seg, m_seg, k_seg, _ = segments
    svc, pos, n_svc = [], 0, 0
    gap, g = [], 0
    k_cur = 1
    for lo in range(0, n_stages, _BLOCK):
        n = min(_BLOCK, n_stages - lo)
        for i in range(n):
            end = pos + k_cur
            if end > n_svc:
                svc = _refill(services, svc, pos, k_cur)
                pos, end, n_svc = 0, k_cur, len(svc)
            m_t = svc[pos] if k_cur == 1 else max(svc[pos:end])
            pos = end
            # Walk the gaps from g until the epoch passes m_t; a walk that
            # runs off the list starts again from g once _refill has added
            # gaps.
            while True:
                try:
                    s = gap[g]
                    j = g + 1
                    while s <= m_t:
                        s += gap[j]
                        j += 1
                    break
                except IndexError:
                    pass
                gap = _refill(gaps, gap, g, len(gap) - g + 1)
                g = 0
            y_seg[i] = s
            m_seg[i] = m_t
            k_seg[i] = k_cur
            k_cur = j - g
            g = j
        _flush(lo, n, columns, segments)
    y, m, k, waiting = columns
    return StageTrace(y=y, m=m, k=k, waiting=waiting, seed=seed,
                      burn_in=burn_in, kind="gi",
                      model=f"gi(arrivals={arrivals.name}, mu={mu})")


def _batch_se(values: np.ndarray) -> float:
    """Batch-means standard error of the mean for serially correlated data."""
    usable = len(values) - len(values) % _N_BATCHES
    batches = values[:usable].reshape(_N_BATCHES, -1)
    means = batches.mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(_N_BATCHES))


# Post-burn-in stages a trace needs before empirical_stats summarizes it.
MIN_RECORDS = 100


@dataclass
class EmpiricalStats:
    """Post-burn-in summary of a trace with batch-means standard errors."""

    column: str
    n_used: int
    bin_edges: np.ndarray
    histogram: np.ndarray
    overflow_mass: float
    mean_y: float
    se_y: float
    k_values: np.ndarray
    k_pmf: np.ndarray
    k_se: np.ndarray
    mean_k: float
    se_k: float

    def to_dict(self) -> dict:
        return {
            "column": self.column,
            "n_used": self.n_used,
            "bin_edges": [float(v) for v in self.bin_edges],
            "histogram": [float(v) for v in self.histogram],
            "overflow_mass": float(self.overflow_mass),
            "mean_y": float(self.mean_y),
            "se_y": float(self.se_y),
            "k_values": [int(v) for v in self.k_values],
            "k_pmf": [float(v) for v in self.k_pmf],
            "k_se": [float(v) for v in self.k_se],
            "mean_k": float(self.mean_k),
            "se_k": float(self.se_k),
        }


def empirical_stats(trace: StageTrace, bins: int = 64,
                    y_max: Optional[float] = None,
                    column: str = "active") -> EmpiricalStats:
    """Histogram of stage lengths plus pmf of serve counts, with SEs.

    column selects which stage-length notion feeds the histogram and mean:
    "active" (the service maximum m, which the analytic stationary density
    describes) or "total" (the full span y including waiting).  The
    histogram is density-normalized against all post-burn-in stages, so its
    mass plus overflow_mass is 1.
    """
    if column not in ("active", "total"):
        raise ValueError(f"column must be 'active' or 'total', got {column!r}")
    data = (trace.m if column == "active" else trace.y)[trace.burn_in:]
    ks = trace.k[trace.burn_in:]
    n = len(data)
    if n < MIN_RECORDS:
        raise InsufficientDataError(
            f"only {n} stages after burn-in={trace.burn_in}; "
            f"need >= {MIN_RECORDS}")
    if y_max is None:
        y_max = float(data.max())
    if y_max <= 0:
        raise ValueError(f"y_max must be positive, got {y_max}")

    edges = np.linspace(0.0, y_max, bins + 1)
    counts, _ = np.histogram(data, bins=edges)
    width = edges[1] - edges[0]
    hist = counts / (n * width)
    overflow = float((data > y_max).mean())

    k_max = int(ks.max())
    k_values = np.arange(1, k_max + 1)
    k_pmf = np.array([(ks == kv).mean() for kv in k_values])
    k_se = np.array([_batch_se((ks == kv).astype(float)) for kv in k_values])

    return EmpiricalStats(
        column=column, n_used=n, bin_edges=edges, histogram=hist,
        overflow_mass=overflow,
        mean_y=float(data.mean()), se_y=_batch_se(data),
        k_values=k_values, k_pmf=k_pmf, k_se=k_se,
        mean_k=float(ks.mean()), se_k=_batch_se(ks.astype(float)))


@dataclass
class DriftReport:
    """Empirical conditional means of K_next against the drift bound.

    For each state i visited at least min_visits times after burn-in:
    the empirical mean of K_next given K=i, its batch-means SE, the bound
    rho * H_i + b0 (H_i the i-th harmonic number), and, for Poisson
    arrivals, the exact conditional mean 1 + rho * H_i.  violations lists
    states whose empirical mean exceeds the bound by more than 3 SEs.
    """

    states: np.ndarray
    visits: np.ndarray
    mean_next: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    reference: Optional[np.ndarray]
    violations: list
    min_visits: int
    rho: float
    b0: float

    def to_dict(self) -> dict:
        out = {
            "rho": float(self.rho),
            "b0": float(self.b0),
            "min_visits": self.min_visits,
            "violations": [int(i) for i in self.violations],
            "states": {},
        }
        for idx, i in enumerate(self.states):
            entry = {
                "visits": int(self.visits[idx]),
                "mean_next": float(self.mean_next[idx]),
                "se": float(self.se[idx]),
                "bound": float(self.bound[idx]),
            }
            if self.reference is not None:
                entry["exact"] = float(self.reference[idx])
            out["states"][str(int(i))] = entry
        return out


def _harmonic(i: int) -> float:
    return math.fsum(1.0 / j for j in range(1, i + 1))


def drift_check(trace: StageTrace, model: GiModel,
                min_visits: int = 500) -> DriftReport:
    """Check empirical E[K_next | K=i] against rho * H_i + b0 per state."""
    if trace.kind != "gi":
        raise ValueError("drift_check needs a trace from simulate_gi")
    ks = trace.k[trace.burn_in:]
    if len(ks) < 2:
        raise InsufficientDataError("trace too short for transition pairs")
    k_from = ks[:-1]
    k_next = ks[1:]

    uniq, counts = np.unique(k_from, return_counts=True)
    keep = counts >= min_visits
    states = uniq[keep]
    visits = counts[keep]
    if len(states) == 0:
        raise InsufficientDataError(
            f"no state visited >= {min_visits} times after burn-in")

    n_pairs = len(k_from)
    batch_idx = np.minimum((np.arange(n_pairs) * _N_BATCHES) // n_pairs,
                           _N_BATCHES - 1)
    rho, b0 = model.rho, model.b0
    mean_next = np.empty(len(states))
    se = np.empty(len(states))
    bound = np.empty(len(states))
    for idx, i in enumerate(states):
        mask = k_from == i
        mean_next[idx] = k_next[mask].mean()
        batch_means = [k_next[mask & (batch_idx == b)].mean()
                       for b in range(_N_BATCHES)
                       if np.any(mask & (batch_idx == b))]
        nb = len(batch_means)
        se[idx] = (np.std(batch_means, ddof=1) / math.sqrt(nb)
                   if nb > 1 else float("nan"))
        bound[idx] = rho * _harmonic(int(i)) + b0
    reference = None
    if model.arrivals.lam is not None:
        reference = np.array([1.0 + rho * _harmonic(int(i)) for i in states])

    violations = [int(i) for idx, i in enumerate(states)
                  if mean_next[idx] > bound[idx] + 3.0 * se[idx]]
    return DriftReport(states=states, visits=visits, mean_next=mean_next,
                       se=se, bound=bound, reference=reference,
                       violations=violations, min_visits=min_visits,
                       rho=rho, b0=b0)
