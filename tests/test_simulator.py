"""Discrete-event oracle: determinism, structure, and statistical checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedq import giqueue, mgqueue, simulator
from gatedq.distributions import ArrivalDistribution, ServiceDistribution
from gatedq.errors import InsufficientDataError, OutOfRegimeError
from gatedq.simulator import (
    StageTrace,
    _blocks,
    _max_on,
    _substream,
    _walk_on,
    simulate_gi,
    simulate_mg,
)

LAM = 1.0
MU = 2.5
SERVICE = ServiceDistribution.exponential(MU)
GI_ARRIVALS = ArrivalDistribution.poisson(0.5)


def test_mg_simulation_is_deterministic_per_seed():
    a = simulate_mg(LAM, SERVICE, 2000, seed=42)
    b = simulate_mg(LAM, SERVICE, 2000, seed=42)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.k, b.k)
    assert np.array_equal(a.waiting, b.waiting)
    c = simulate_mg(LAM, SERVICE, 2000, seed=43)
    assert not np.array_equal(a.y, c.y)


def test_gi_simulation_is_deterministic_per_seed():
    a = simulate_gi(GI_ARRIVALS, 1.0, 2000, seed=42)
    b = simulate_gi(GI_ARRIVALS, 1.0, 2000, seed=42)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.k, b.k)


def test_mg_structural_invariants():
    tr = simulate_mg(LAM, SERVICE, 5000, seed=7)
    assert len(tr) == 5000
    assert tr.kind == "mg"
    assert np.all(tr.k >= 1)
    assert np.all(tr.y >= tr.m)
    # A waiting phase extends the stage strictly past the last departure and
    # the next stage then opens with exactly the one customer who arrived.
    waiting = tr.waiting[:-1]
    assert np.all(tr.k[1:][waiting] == 1)
    assert np.all(tr.y[:-1][waiting] > tr.m[:-1][waiting])
    # Without a waiting phase the stage closes at the last departure.
    assert np.all(tr.y[~tr.waiting] == tr.m[~tr.waiting])
    assert tr.waiting.sum() > 0


def test_gi_structural_invariants():
    tr = simulate_gi(GI_ARRIVALS, 1.0, 5000, seed=7)
    assert len(tr) == 5000
    assert tr.kind == "gi"
    assert np.all(tr.k >= 1)
    # The gate closes at the first arrival after the last departure, so the
    # stage is always strictly longer than its service phase and a separate
    # waiting flag never appears.
    assert np.all(tr.y > tr.m)
    assert not tr.waiting.any()


def test_burn_in_is_kept_in_the_trace():
    tr = simulate_mg(LAM, SERVICE, 1200, seed=5, burn_in=200)
    assert len(tr) == 1200
    assert tr.burn_in == 200
    stats = simulator.empirical_stats(tr)
    assert stats.n_used == 1000


def test_input_validation():
    with pytest.raises(ValueError):
        simulate_mg(0.0, SERVICE, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_mg(LAM, SERVICE, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_mg(LAM, SERVICE, 100, seed=1, burn_in=-1)
    with pytest.raises(ValueError):
        simulate_gi(GI_ARRIVALS, 0.0, 100, seed=1)
    with pytest.raises(ValueError, match="rate must be positive, got nan"):
        simulate_mg(math.nan, SERVICE, 100, seed=1)
    with pytest.raises(ValueError, match="rate must be positive, got nan"):
        simulate_gi(GI_ARRIVALS, math.nan, 100, seed=1)


def test_mean_stage_length_matches_the_analytic_value():
    tr = simulate_mg(LAM, SERVICE, 100000, seed=42, burn_in=1000)
    stats = simulator.empirical_stats(tr, column="active")
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam=LAM, service=SERVICE), order=10)
    assert abs(stats.mean_y - sol.beta1) <= 3.0 * stats.se_y


def test_standard_errors_shrink_like_root_n():
    """Doubling the sample should scale batch-means errors by about 0.71.

    Individual seeds fluctuate a lot, so the ratio is averaged over six
    fixed seeds and only the average is constrained.
    """
    seeds = (2, 7, 42, 100, 314, 2718)
    mg_ratios, gi_ratios = [], []
    for s in seeds:
        small = simulator.empirical_stats(
            simulate_mg(LAM, SERVICE, 21000, seed=s, burn_in=1000), column="active")
        big = simulator.empirical_stats(
            simulate_mg(LAM, SERVICE, 41000, seed=s, burn_in=1000), column="active")
        mg_ratios.append(big.se_y / small.se_y)
        small = simulator.empirical_stats(
            simulate_gi(GI_ARRIVALS, 1.0, 21000, seed=s, burn_in=1000))
        big = simulator.empirical_stats(
            simulate_gi(GI_ARRIVALS, 1.0, 41000, seed=s, burn_in=1000))
        gi_ratios.append(big.se_k / small.se_k)
    assert 0.6 < np.mean(mg_ratios) < 0.85
    assert 0.6 < np.mean(gi_ratios) < 0.85


def test_empirical_stats_columns_and_histogram():
    tr = simulate_mg(LAM, SERVICE, 20000, seed=9, burn_in=1000)
    active = simulator.empirical_stats(tr, column="active", y_max=2.0)
    total = simulator.empirical_stats(tr, column="total", y_max=2.0)
    # Waiting phases only ever lengthen a stage.
    assert total.mean_y > active.mean_y
    # Histogram mass plus overflow accounts for every stage.
    width = active.bin_edges[1] - active.bin_edges[0]
    assert active.histogram.sum() * width + active.overflow_mass == \
        pytest.approx(1.0, abs=1e-12)
    assert active.overflow_mass > 0.0
    assert active.k_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        simulator.empirical_stats(tr, column="bogus")
    with pytest.raises(ValueError):
        simulator.empirical_stats(tr, y_max=0.0)


def test_empirical_stats_needs_data_after_burn_in():
    tr = simulate_mg(LAM, SERVICE, 150, seed=1, burn_in=100)
    with pytest.raises(InsufficientDataError):
        simulator.empirical_stats(tr)


def test_drift_check_against_exact_conditional_means():
    model = giqueue.GiModel(GI_ARRIVALS, 1.0)
    tr = simulate_gi(GI_ARRIVALS, 1.0, 200000, seed=99, burn_in=1000)
    rep = simulator.drift_check(tr, model, min_visits=500)
    assert rep.violations == []
    assert rep.reference is not None
    # Poisson arrivals admit the exact value E[K_next | K = i] = 1 + rho H_i.
    harmonic = np.cumsum(1.0 / np.arange(1, rep.states.max() + 1))
    exact = 1.0 + rep.rho * harmonic[rep.states - 1]
    np.testing.assert_allclose(rep.reference, exact, rtol=1e-13)
    z = np.abs(rep.mean_next - rep.reference) / rep.se
    assert z.max() < 3.0
    assert np.all(rep.visits >= 500)
    assert rep.to_dict()["violations"] == []


def per_state_drift(trace, min_visits):
    """states, visits, mean_next and se of drift_check, one mask per state."""
    ks = trace.k[trace.burn_in:]
    k_from, k_next = ks[:-1], ks[1:]
    uniq, counts = np.unique(k_from, return_counts=True)
    keep = counts >= min_visits
    states, visits = uniq[keep], counts[keep]
    n = len(k_from)
    batch = np.minimum((np.arange(n) * 20) // n, 19)
    mean_next, se = np.empty(len(states)), np.empty(len(states))
    for idx, i in enumerate(states):
        mask = k_from == i
        mean_next[idx] = k_next[mask].mean()
        means = [k_next[mask & (batch == b)].mean() for b in range(20)
                 if np.any(mask & (batch == b))]
        se[idx] = (np.std(means, ddof=1) / math.sqrt(len(means))
                   if len(means) > 1 else math.nan)
    return states, visits, mean_next, se


@pytest.mark.parametrize("n,seed,min_visits", [
    (200000, 5, 500), (50000, 7, 500), (20000, 11, 1)])
def test_drift_check_bincounts_equal_the_per_state_masks(n, seed, min_visits):
    model = giqueue.GiModel(GI_ARRIVALS, 1.0)
    tr = simulate_gi(GI_ARRIVALS, 1.0, n, seed=seed)
    rep = simulator.drift_check(tr, model, min_visits=min_visits)
    want = per_state_drift(tr, min_visits)
    got = (rep.states, rep.visits, rep.mean_next, rep.se)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w, equal_nan=True)
    # min_visits = 1 keeps states visited once, whose SE is NaN.
    assert np.isnan(rep.se).any() == (min_visits == 1)


def test_drift_check_argument_errors():
    model = giqueue.GiModel(GI_ARRIVALS, 1.0)
    mg_trace = simulate_mg(LAM, SERVICE, 2000, seed=1)
    with pytest.raises(ValueError):
        simulator.drift_check(mg_trace, model)
    gi_trace = simulate_gi(GI_ARRIVALS, 1.0, 5000, seed=1)
    with pytest.raises(InsufficientDataError):
        simulator.drift_check(gi_trace, model, min_visits=10 ** 9)
    # One stage past burn-in leaves no transition pair.
    short = simulate_gi(GI_ARRIVALS, 1.0, 101, seed=1, burn_in=100)
    with pytest.raises(InsufficientDataError, match="too short"):
        simulator.drift_check(short, model)


def test_batch_se_matches_direct_computation():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=4000)
    got = simulator._batch_se(vals)
    means = vals.reshape(20, 200).mean(axis=1)
    expected = means.std(ddof=1) / math.sqrt(20)
    assert got == pytest.approx(expected, rel=1e-12)


class _Uniform:
    name = "uniform"

    @staticmethod
    def sample(rng, size):
        return rng.random(size)


@pytest.mark.parametrize("block", [3, 4096])
def test_draw_stream_crosses_chunk_boundaries(block, monkeypatch):
    """_blocks serves the sampler's draws in order, _BLOCK at a time, and
    _max_on folds the largest of k draws that run past a block across
    blocks (of 3 draws, or one block of 4 096) from where the last read
    ended."""
    monkeypatch.setattr(simulator, "_BLOCK", block)
    flat = np.random.default_rng(123).random(24 * block)
    blocks = _blocks(np.random.default_rng(123), _Uniform)
    drawn = []
    while len(drawn) < len(flat):
        drawn += next(blocks)
    np.testing.assert_array_equal(drawn, flat)
    assert np.all((flat >= 0.0) & (flat < 1.0))
    blocks = _blocks(np.random.default_rng(123), _Uniform)
    buf, pos, start = [], 0, 0
    for k in (5, 5, 20, 1, 8, 3):
        if pos + k <= len(buf):
            pos += k
        else:
            top, buf, pos = _max_on(blocks, buf, pos, k)
            assert top == flat[start:start + k].max()
            assert buf[pos - 1] == flat[start + k - 1]
        start += k
    assert start == 42


@pytest.mark.parametrize("run", [
    lambda: simulate_mg(1e4, ServiceDistribution.exponential(1.0), 10,
                        seed=61, burn_in=0),
    lambda: simulate_gi(ArrivalDistribution.poisson(3000.0), 1.0, 10,
                        seed=62, burn_in=0),
], ids=["mg", "gi"])
def test_memory_stays_bounded_when_stages_span_many_blocks(run):
    """Stages of 10^4 to 10^5 customers take their draws from dozens of
    blocks.  A stream is held one block at a time, so the peak of traced
    memory stays under 3 MB however many draws a stage takes."""
    tracemalloc.start()
    try:
        tr = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.k.max() > 8 * simulator._BLOCK
    assert peak < 3 * 2 ** 20


def test_a_stage_that_needs_too_many_draws_is_refused(monkeypatch):
    monkeypatch.setattr(simulator, "_MAX_DRAWS", 1000)
    with pytest.raises(OutOfRegimeError, match="service times"):
        simulate_mg(1e4, ServiceDistribution.exponential(1.0), 40, seed=1,
                    burn_in=0)
    with pytest.raises(OutOfRegimeError, match="interarrival gaps"):
        simulate_gi(ArrivalDistribution.poisson(3000.0), 1.0, 40, seed=1,
                    burn_in=0)


def test_a_walk_whose_last_block_takes_it_past_the_limit_is_refused(
        monkeypatch):
    """A walk that enters its last block below _MAX_DRAWS gaps but needs
    more of that block than the limit leaves is refused too; one that ends
    at the limit is not."""
    monkeypatch.setattr(simulator, "_MAX_DRAWS", 10)
    blocks = iter([[0.25] * 8])
    # 4 gaps taken (sum 1.0); the next block's first 6 pass 2.5 at 10 gaps.
    assert _walk_on(blocks, 1.0, 4, 2.4) == (2.5, 10, [0.25] * 8, 6)
    with pytest.raises(OutOfRegimeError, match="interarrival gaps"):
        _walk_on(iter([[0.25] * 8]), 1.0, 4, 2.5)


@pytest.mark.parametrize("run", [
    lambda: simulate_mg(1e30, ServiceDistribution.exponential(1.0), 200,
                        seed=1),
    lambda: simulate_gi(ArrivalDistribution.deterministic(0.0), 1.0, 200,
                        seed=1),
], ids=["poisson-mean", "zero-gaps"])
def test_impossible_loads_are_refused(run):
    """numpy refuses a Poisson mean of about 1e30; gaps of length 0 never
    pass a service time, so the walk stops at the draw limit."""
    with pytest.raises(OutOfRegimeError):
        run()


# ------------------------------------------------- literal reference engine ----
# The sampler and both stage loops as they were written on numpy buffers and
# numpy scalars, kept verbatim as the reference: the engine that serves
# Python floats must reproduce every draw and every stage bit for bit.

class _ReferenceChunkedSampler:
    """Serves draws from fn(rng, size) out of large pre-drawn chunks."""

    def __init__(self, rng: np.random.Generator, fn, chunk: int = 65536):
        self._rng = rng
        self._fn = fn
        self._chunk = chunk
        self._buf = np.asarray(fn(rng, chunk), dtype=float)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        if self._pos + n <= len(self._buf):
            out = self._buf[self._pos:self._pos + n]
            self._pos += n
            return out
        parts = [self._buf[self._pos:]]
        need = n - len(parts[0])
        while need > self._chunk:
            parts.append(np.asarray(self._fn(self._rng, self._chunk), dtype=float))
            need -= self._chunk
        self._buf = np.asarray(self._fn(self._rng, self._chunk), dtype=float)
        parts.append(self._buf[:need])
        self._pos = need
        return np.concatenate(parts)

    def one(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = np.asarray(self._fn(self._rng, self._chunk), dtype=float)
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return float(v)


def reference_simulate_mg(lam: float, service: ServiceDistribution,
                          n_stages: int, seed: int, burn_in: int = 1000,
                          chunk: int = 65536) -> StageTrace:
    arr_rng = _substream(seed, 0)
    svc = _ReferenceChunkedSampler(_substream(seed, 1), service.sample, chunk)

    y = np.empty(n_stages)
    m = np.empty(n_stages)
    k = np.empty(n_stages, dtype=np.int64)
    waiting = np.zeros(n_stages, dtype=bool)
    k_cur = 1
    for t in range(n_stages):
        m_t = float(svc.take(k_cur).max())
        a = int(arr_rng.poisson(lam * m_t))
        m[t] = m_t
        k[t] = k_cur
        if a == 0:
            y[t] = m_t + float(arr_rng.exponential(1.0 / lam))
            waiting[t] = True
            k_cur = 1
        else:
            y[t] = m_t
            k_cur = a
    return StageTrace(y=y, m=m, k=k, waiting=waiting, seed=seed,
                      burn_in=burn_in, kind="mg",
                      model=f"mg(lam={lam}, service={service.name})")


def reference_simulate_gi(arrivals: ArrivalDistribution, mu: float,
                          n_stages: int, seed: int, burn_in: int = 1000,
                          chunk: int = 65536) -> StageTrace:
    gaps = _ReferenceChunkedSampler(_substream(seed, 0), arrivals.sample,
                                    chunk)
    svc = _ReferenceChunkedSampler(_substream(seed, 1),
                                   ServiceDistribution.exponential(mu).sample,
                                   chunk)

    y = np.empty(n_stages)
    m = np.empty(n_stages)
    k = np.empty(n_stages, dtype=np.int64)
    waiting = np.zeros(n_stages, dtype=bool)
    k_cur = 1
    for t in range(n_stages):
        m_t = float(svc.take(k_cur).max())
        s = gaps.one()
        count = 1
        while s <= m_t:
            s += gaps.one()
            count += 1
        y[t] = s
        m[t] = m_t
        k[t] = k_cur
        k_cur = count
    return StageTrace(y=y, m=m, k=k, waiting=waiting, seed=seed,
                      burn_in=burn_in, kind="gi",
                      model=f"gi(arrivals={arrivals.name}, mu={mu})")


def assert_same_trace(got: StageTrace, want: StageTrace) -> None:
    for column in ("y", "m", "k", "waiting"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype, column
        assert np.array_equal(a, b), column
    assert (got.seed, got.burn_in, got.kind, got.model) == \
        (want.seed, want.burn_in, want.kind, want.model)


@pytest.mark.parametrize("lam,mu,seed", [(1.0, 2.5, 2026), (0.3, 0.6, 2027),
                                         (2.8, 4.0, 2028)])
def test_mg_engine_matches_the_literal_reference(lam, mu, seed):
    service = ServiceDistribution.exponential(mu)
    assert_same_trace(simulate_mg(lam, service, 5000, seed=seed),
                      reference_simulate_mg(lam, service, 5000, seed=seed))


def test_mg_engine_matches_the_reference_on_a_user_sampler():
    erlang2 = ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.0, name="erlang2-sampler",
        sampler=lambda rng, size: rng.gamma(2.0, 0.2, size))
    assert_same_trace(simulate_mg(1.5, erlang2, 5000, seed=31),
                      reference_simulate_mg(1.5, erlang2, 5000, seed=31))


@pytest.mark.parametrize("arrivals,mu,seed", [
    (ArrivalDistribution.poisson(0.5), 1.0, 41),
    (ArrivalDistribution.deterministic(1.5), 1.0, 42),
])
def test_gi_engine_matches_the_literal_reference(arrivals, mu, seed):
    assert_same_trace(simulate_gi(arrivals, mu, 5000, seed=seed),
                      reference_simulate_gi(arrivals, mu, 5000, seed=seed))


def test_engines_match_the_reference_across_chunk_boundaries():
    tr = simulate_mg(LAM, SERVICE, 70000, seed=51)
    assert_same_trace(tr, reference_simulate_mg(LAM, SERVICE, 70000, seed=51))
    # The services drawn span more than one 65 536-draw reference chunk.
    assert tr.k.sum() > 65536
    tr = simulate_gi(GI_ARRIVALS, 1.0, 70000, seed=52)
    assert_same_trace(tr, reference_simulate_gi(GI_ARRIVALS, 1.0, 70000,
                                                seed=52))
    assert tr.k.sum() > 65536


def test_mg_engine_matches_the_reference_when_a_stage_takes_several_chunks(
        monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    service = ServiceDistribution.exponential(1.0)
    tr = simulate_mg(8.0, service, 2000, seed=53)
    assert_same_trace(tr, reference_simulate_mg(8.0, service, 2000, seed=53,
                                                chunk=8))
    # Some stages take more than two blocks of draws at once.
    assert tr.k.max() > 2 * 8


def test_gi_engine_matches_the_reference_when_a_walk_takes_several_chunks(
        monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    arrivals = ArrivalDistribution.poisson(3.0)
    tr = simulate_gi(arrivals, 1.0, 2000, seed=54)
    assert_same_trace(tr, reference_simulate_gi(arrivals, 1.0, 2000, seed=54,
                                                chunk=8))
    # k[t + 1] gaps close stage t: some stage walks gaps from more than two
    # 8-draw blocks, so its walk runs off the list of gaps at least twice.
    assert tr.k[1:].max() > 2 * 8


def _first_chunk_only(draw):
    """A sampler that returns draw(rng, size) on its first call and no draws
    on its second; a third call fails the test instead of hanging it."""
    calls = []

    def sample(rng, size):
        calls.append(size)
        assert len(calls) <= 2, "sampled again after an empty chunk"
        return draw(rng, size) if len(calls) == 1 else np.empty(0)

    return sample


def test_a_sampler_that_runs_dry_on_a_later_refill_is_refused(monkeypatch):
    monkeypatch.setattr(simulator, "_BLOCK", 8)
    def exponential(rng, size):
        return rng.exponential(1.0, size)

    service = ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.0, name="dry-service",
        sampler=_first_chunk_only(exponential))
    with pytest.raises(ValueError, match="dry-service"):
        simulate_mg(1.0, service, 200, seed=1, burn_in=0)
    arrivals = ArrivalDistribution.from_callables(
        sampler=_first_chunk_only(exponential),
        laplace=lambda s: 1.0 / (1.0 + s), mean=1.0, second_moment=2.0,
        name="dry-gaps")
    with pytest.raises(ValueError, match="dry-gaps"):
        simulate_gi(arrivals, 1.0, 200, seed=1, burn_in=0)


def test_a_sampler_with_no_draws_is_refused():
    def empty(rng, size):
        return np.empty(0)

    service = ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.0, sampler=empty, name="no-draws")
    with pytest.raises(ValueError, match="no-draws"):
        simulate_mg(1.0, service, 200, seed=1, burn_in=0)
    arrivals = ArrivalDistribution.from_callables(
        sampler=empty, laplace=lambda s: 1.0 / (1.0 + s), mean=1.0,
        second_moment=2.0, name="no-draws")
    with pytest.raises(ValueError, match="no-draws"):
        simulate_gi(arrivals, 1.0, 200, seed=1, burn_in=0)


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.02, 0.95), mu=st.floats(0.2, 5.0),
       seed=st.integers(0, 2 ** 63 - 1))
def test_engines_match_the_reference_and_keep_their_invariants(rho, mu, seed):
    lam = rho * mu
    service = ServiceDistribution.exponential(mu)
    tr = simulate_mg(lam, service, 400, seed=seed, burn_in=0)
    assert_same_trace(tr, reference_simulate_mg(lam, service, 400, seed=seed,
                                                burn_in=0))
    assert np.all(tr.k >= 1)
    assert np.all(tr.y >= tr.m)
    assert np.array_equal(tr.waiting, tr.y > tr.m)

    arrivals = ArrivalDistribution.poisson(lam)
    tr = simulate_gi(arrivals, mu, 400, seed=seed, burn_in=0)
    assert_same_trace(tr, reference_simulate_gi(arrivals, mu, 400, seed=seed,
                                                burn_in=0))
    assert np.all(tr.k >= 1)
    assert np.all(tr.y > tr.m)
    assert not tr.waiting.any()
