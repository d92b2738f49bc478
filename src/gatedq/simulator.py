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
seeds are independent without shared state.  Each law draws _BLOCK values
at a time, which _blocks hands out as one list of Python floats; numpy's
Generator methods give the same values however a run of draws is split, so
the block size leaves a trace's bits alone.  A stream is one such block and
a position in it, never grown: a stage reads its draws by index, and the
rare stage that runs past its block folds its service maximum (_max_on) or
its sum of gaps (_walk_on) on into the next blocks, in the order of the
draws.  A stage that needs more than _MAX_DRAWS draws of one stream, or a
Poisson mean numpy refuses, raises OutOfRegimeError.  The loops store each
stage in reusable lists of _BLOCK stages, copied into the trace's numpy
columns when full, so a run never holds more than _BLOCK stages as Python
objects.

Stage lengths are recorded twice per stage: m is the active phase (the
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
from .errors import InsufficientDataError, OutOfRegimeError, count, positive
from .giqueue import GiModel

# Draws of one stream taken and converted to Python floats at a time; also
# the stages held in lists between copies into a trace's columns.
_BLOCK = 1 << 12
# The most draws of one stream a single stage may take.
_MAX_DRAWS = 1 << 24
_N_BATCHES = 20


@dataclass
class StageTrace:
    """Columnar trace of a simulation run, one entry per stage.

    Invariants: k >= 1; y >= m, with y = m exactly where waiting is false
    (M/G model); waiting is all false in GI traces, where a stage ends
    strictly after its active phase.  The first burn_in stages are kept
    but excluded by the statistics layer.
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


def _substream(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(rng: np.random.Generator, law) -> Iterator[list]:
    """The draws of law.sample(rng, _BLOCK), one block after another, as
    lists of Python floats; _BLOCK is read at each refill."""
    while True:
        block = np.asarray(law.sample(rng, _BLOCK), dtype=float).tolist()
        if not block:
            raise ValueError(f"the sampler of {law.name!r} returned no draws")
        yield block


def _too_many_draws(what: str) -> OutOfRegimeError:
    return OutOfRegimeError(
        f"a stage needs more than {_MAX_DRAWS} {what}, the most the "
        f"simulator draws for one stage; the load is too heavy to simulate")


def _max_on(blocks: Iterator[list], block: list, pos: int, k: int) -> tuple:
    """The largest of the k draws from block[pos] on, which run past block,
    with the block they end in and the position after them."""
    if k > _MAX_DRAWS:
        raise _too_many_draws("service times")
    tops = block[pos:]
    k -= len(tops)
    while k > 0:
        block = next(blocks)
        tops.append(max(block[:k]))
        k -= len(block)
    return max(tops), block, k + len(block)


def _walk_on(blocks: Iterator[list], s: float, taken: int,
             m_t: float) -> tuple:
    """Carry a walk of gaps that ran off its block, whose first taken gaps
    sum to s, on until the sum passes m_t: the sum, the gaps taken, and the
    block and position after them."""
    while True:
        if taken >= _MAX_DRAWS:
            raise _too_many_draws("interarrival gaps")
        gap = next(blocks)
        s, j = (s, 0) if taken else (gap[0], 1)
        try:
            while s <= m_t:
                s += gap[j]
                j += 1
        except IndexError:
            taken += j
            continue
        if taken + j > _MAX_DRAWS:
            raise _too_many_draws("interarrival gaps")
        return s, taken + j, gap, j


def _run_args(rate: float, what: str, n_stages: int, seed: int,
              burn_in: int) -> tuple:
    """n_stages, seed and burn_in as ints once the rate is checked."""
    positive(rate, what)
    return (count(n_stages, "n_stages", 1), count(seed, "seed"),
            count(burn_in, "burn_in", 0))


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
    n_stages, seed, burn_in = _run_args(lam, "arrival rate", n_stages, seed,
                                        burn_in)
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
            if end <= n_svc:
                m_t = svc[pos] if k_cur == 1 else max(svc[pos:end])
                pos = end
            else:
                m_t, svc, pos = _max_on(services, svc, pos, k_cur)
                n_svc = len(svc)
            try:
                a = poisson(lam * m_t)
            except ValueError as exc:
                raise OutOfRegimeError(
                    f"numpy cannot draw a stage's Poisson arrivals of mean "
                    f"{lam * m_t!r}: {exc}") from exc
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
    n_stages, seed, burn_in = _run_args(mu, "service rate", n_stages, seed,
                                        burn_in)
    gaps = _blocks(_substream(seed, 0), arrivals)
    services = _blocks(_substream(seed, 1),
                       ServiceDistribution.exponential(mu))

    columns, segments = _buffers(n_stages)
    y_seg, m_seg, k_seg, _ = segments
    svc, pos, n_svc = [], 0, 0
    gap, g, s = [], 0, 0.0
    k_cur = 1
    for lo in range(0, n_stages, _BLOCK):
        n = min(_BLOCK, n_stages - lo)
        for i in range(n):
            end = pos + k_cur
            if end <= n_svc:
                m_t = svc[pos] if k_cur == 1 else max(svc[pos:end])
                pos = end
            else:
                m_t, svc, pos = _max_on(services, svc, pos, k_cur)
                n_svc = len(svc)
            # Walk the gaps from g until the epoch passes m_t; a walk that
            # runs off its block goes on in the next ones.
            try:
                s = gap[g]
                j = g + 1
                while s <= m_t:
                    s += gap[j]
                    j += 1
                taken = j - g
            except IndexError:
                s, taken, gap, j = _walk_on(
                    gaps, s, j - g if g < len(gap) else 0, m_t)
            y_seg[i] = s
            m_seg[i] = m_t
            k_seg[i] = k_cur
            k_cur = taken
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
    """Post-burn-in summary of a trace with batch-means standard errors.

    k_pmf[i-1] and k_se[i-1] belong to serve count i; k_values, the counts
    1..len(k_pmf), is derived from k_pmf, never stored.
    """

    column: str
    n_used: int
    bin_edges: np.ndarray
    histogram: np.ndarray
    overflow_mass: float
    mean_y: float
    se_y: float
    k_pmf: np.ndarray
    k_se: np.ndarray
    mean_k: float
    se_k: float

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(1, len(self.k_pmf) + 1)

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
    y_max = positive(float(data.max()) if y_max is None else y_max, "y_max")
    edges = np.linspace(0.0, y_max, count(bins, "bins", 1) + 1)
    counts, _ = np.histogram(data, bins=edges)
    width = edges[1] - edges[0]
    hist = counts / (n * width)
    overflow = float((data > y_max).mean())

    k_max = int(ks.max())
    k_pmf = np.bincount(ks, minlength=k_max + 1)[1:] / n
    # _batch_se of each k's indicator: one contiguous row of batch means per k.
    batches = ks[:n - n % _N_BATCHES].reshape(_N_BATCHES, -1)
    slots = batches * _N_BATCHES + np.arange(_N_BATCHES)[:, None]
    counts = np.bincount(slots.ravel(), minlength=(k_max + 1) * _N_BATCHES)
    means = counts.reshape(k_max + 1, _N_BATCHES)[1:] / batches.shape[1]
    k_se = means.std(axis=1, ddof=1) / math.sqrt(_N_BATCHES)

    return EmpiricalStats(
        column=column, n_used=n, bin_edges=edges, histogram=hist,
        overflow_mass=overflow,
        mean_y=float(data.mean()), se_y=_batch_se(data),
        k_pmf=k_pmf, k_se=k_se,
        mean_k=float(ks.mean()), se_k=_batch_se(ks.astype(float)))


@dataclass
class DriftReport:
    """Empirical conditional means of K_next against the drift bound.

    For each state i visited at least min_visits times after burn-in:
    the empirical mean of K_next given K=i, its batch-means SE, the bound
    rho * H_i + b0 (H_i the i-th harmonic number), and, for Poisson
    arrivals, the exact conditional mean 1 + rho * H_i.  violations, the
    states whose empirical mean exceeds the bound by more than 3 SEs, is
    derived from those arrays, never stored.
    """

    states: np.ndarray
    visits: np.ndarray
    mean_next: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    reference: Optional[np.ndarray]
    min_visits: int
    rho: float
    b0: float

    @property
    def violations(self) -> list:
        over = self.mean_next > self.bound + 3.0 * self.se
        return self.states[over].tolist()

    def to_dict(self) -> dict:
        out = {
            "rho": float(self.rho),
            "b0": float(self.b0),
            "min_visits": self.min_visits,
            "violations": self.violations,
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
    min_visits = count(min_visits, "min_visits", 1)
    if trace.kind != "gi":
        raise ValueError("drift_check needs a trace from simulate_gi")
    ks = trace.k[trace.burn_in:]
    if len(ks) < 2:
        raise InsufficientDataError("trace too short for transition pairs")
    k_from, k_next = ks[:-1], ks[1:]
    # Per (state, batch) sums of K_next and visits in one bincount pass each,
    # pair t in batch floor(20 t / n_pairs).
    n_pairs = len(k_from)
    slots = k_from * _N_BATCHES + np.minimum(
        (np.arange(n_pairs) * _N_BATCHES) // n_pairs, _N_BATCHES - 1)
    size = (int(k_from.max()) + 1) * _N_BATCHES
    hits = np.bincount(slots, minlength=size).reshape(-1, _N_BATCHES)
    sums = np.bincount(slots, k_next, size).reshape(-1, _N_BATCHES)
    visits_all = hits.sum(axis=1)
    states = np.flatnonzero(visits_all >= min_visits)
    if len(states) == 0:
        raise InsufficientDataError(
            f"no state visited >= {min_visits} times after burn-in")
    visits, hits, sums = visits_all[states], hits[states], sums[states]

    rho, b0 = model.rho, model.b0
    mean_next = sums.sum(axis=1) / visits
    # The batch-means SE over the batches a state visits, one state at a time.
    se = np.array([np.std(s[h > 0] / h[h > 0], ddof=1) / math.sqrt(nb)
                   if (nb := np.count_nonzero(h)) > 1 else math.nan
                   for s, h in zip(sums, hits)])
    bound = np.array([rho * _harmonic(int(i)) + b0 for i in states])
    reference = None
    if model.arrivals.lam is not None:
        reference = np.array([1.0 + rho * _harmonic(int(i)) for i in states])
    return DriftReport(states=states, visits=visits, mean_next=mean_next,
                       se=se, bound=bound, reference=reference,
                       min_visits=min_visits, rho=rho, b0=b0)
