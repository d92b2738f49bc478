"""Distribution layer: closed forms, min-moment quadrature, validation."""

import dataclasses
import math
import random
import sys
import threading

import numpy as np
import pytest

from gatedq import distributions
from gatedq.distributions import (
    ArrivalDistribution,
    DivergentMomentError,
    GammaTable,
    ServiceDistribution,
    min_moment,
    tail_support,
    validate,
)

MU = 2.5


def wrapped_exponential(mu=MU, counter=None):
    """The exponential law routed through the user-callable interface.

    Every closed form stays available for comparison while the code under
    test must treat the object as an opaque density/cdf pair.
    """

    def pdf(y):
        return mu * math.exp(-mu * y) if y >= 0 else 0.0

    def cdf(y):
        if counter is not None:
            counter["cdf"] += 1
        return -math.expm1(-mu * y) if y >= 0 else 0.0

    return ServiceDistribution.from_callables(pdf, cdf, name="wrapped-exp")


def pareto(alpha=1.5, exact_sf=False):
    def pdf(y):
        return alpha * (1.0 + y) ** (-alpha - 1.0) if y >= 0 else 0.0

    def cdf(y):
        return 1.0 - (1.0 + y) ** (-alpha) if y >= 0 else 0.0

    def sf(y):
        return (1.0 + y) ** (-alpha) if y >= 0 else 1.0

    return ServiceDistribution.from_callables(
        pdf, cdf, name="pareto", sf=sf if exact_sf else None)


def uniform(b, exact_sf=False):
    """Uniform(0, b) through scalar-only callables."""

    def cdf(y):
        return min(max(y / b, 0.0), 1.0)

    def sf(y):
        return min(max(1.0 - y / b, 0.0), 1.0)

    return ServiceDistribution.from_callables(
        pdf=lambda y: 1.0 / b if 0.0 <= y <= b else 0.0, cdf=cdf,
        name=f"uniform({b})", sf=sf if exact_sf else None)


def test_exponential_pointwise():
    d = ServiceDistribution.exponential(MU)
    assert d.pdf(0.4) == pytest.approx(MU * math.exp(-1.0), rel=1e-15)
    assert d.cdf(0.4) == pytest.approx(-math.expm1(-1.0), rel=1e-15)
    assert d.sf(0.4) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert d.cdf(0.4) + d.sf(0.4) == pytest.approx(1.0, abs=1e-15)
    # Negative arguments sit outside the support.
    assert d.pdf(-1.0) == 0.0
    assert d.cdf(-1.0) == 0.0
    assert d.sf(-1.0) == 1.0
    # Vector evaluation keeps the shape.
    y = np.array([-1.0, 0.0, 0.4])
    assert d.pdf(y).shape == (3,)
    assert d.pdf(y)[0] == 0.0 and d.pdf(y)[1] == MU


def _reference_exponential(mu, y):
    """The closed forms that exponential laws evaluated before they became
    callables; the constructor must reproduce them bit for bit."""
    y = np.asarray(y, dtype=float)
    out = (np.where(y < 0, 0.0, mu * np.exp(-mu * np.maximum(y, 0.0))),
           np.where(y < 0, 0.0, -np.expm1(-mu * np.maximum(y, 0.0))),
           np.where(y < 0, 1.0, np.exp(-mu * np.maximum(y, 0.0))))
    return [o if o.ndim else float(o) for o in out]


@pytest.mark.parametrize("mu", [MU, 0.3, 7.0])
def test_exponential_callables_reproduce_the_closed_forms_bit_for_bit(mu):
    d = ServiceDistribution.exponential(mu)
    grid = np.array([-3.0, -1e-300, -0.0, 0.0, 1e-300, 0.4, 1.0, 3.7, 50.0,
                     800.0])
    for y in [*grid.tolist(), grid, grid.reshape(2, 5)]:
        got = [d.pdf(y), d.cdf(y), d.sf(y)]
        want = _reference_exponential(mu, y)
        for g, w in zip(got, want):
            if isinstance(w, float):
                assert type(g) is float and g == w
            else:
                assert g.shape == w.shape and np.array_equal(g, w)


def test_seeded_draws_equal_the_closed_form_samplers():
    draws = [
        (ServiceDistribution.exponential(MU).sample,
         lambda rng, n: rng.exponential(1.0 / MU, n)),
        (ArrivalDistribution.poisson(0.85).sample,
         lambda rng, n: rng.exponential(1.0 / 0.85, n)),
        (ArrivalDistribution.deterministic(0.3).sample,
         lambda rng, n: np.full(n, 0.3)),
    ]
    for sample, reference in draws:
        got = sample(np.random.default_rng(19), 500)
        want = reference(np.random.default_rng(19), 500)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_laplace_transforms_equal_the_closed_forms():
    lam, c = 0.85, 0.7
    poisson = ArrivalDistribution.poisson(lam)
    det = ArrivalDistribution.deterministic(c)
    for s in [0.0, 1e-12, 0.5, 1.0, 3.0, 40.0, 1e6]:
        assert poisson.laplace(s) == lam / (lam + s)
        assert det.laplace(s) == math.exp(-s * c)


def test_only_the_named_families_carry_a_rate():
    assert ServiceDistribution.exponential(MU).mu == MU
    assert wrapped_exponential().mu is None
    assert ArrivalDistribution.poisson(0.85).lam == 0.85
    assert ArrivalDistribution.deterministic(0.7).lam is None
    assert ArrivalDistribution.from_callables(
        None, lambda s: 1.0, 1.0, 1.0).lam is None


def test_exponential_constructor_rejects_bad_rate():
    with pytest.raises(ValueError):
        ServiceDistribution.exponential(0.0)
    with pytest.raises(ValueError):
        ServiceDistribution.exponential(-2.0)
    with pytest.raises(ValueError):
        ArrivalDistribution.poisson(0.0)


def test_exponential_raw_moments():
    d = ServiceDistribution.exponential(MU)
    assert d.moment(1) == 1.0 / MU
    assert d.moment(2) == 2.0 / MU ** 2
    assert d.moment(3) == pytest.approx(6.0 / MU ** 3, rel=1e-15)


def test_exponential_raw_moments_keep_their_closed_form_bits():
    for mu in (1e-3, 0.37, MU, 1e3):
        d = ServiceDistribution.exponential(mu)
        for m in (1, 2, 7, 40, 99):
            assert d.moment(m) == math.factorial(m) / mu ** m, (mu, m)


def test_exponential_raw_moments_past_double_range():
    # 171! and 2^200 leave double range, but the moment of rate 1e3 does not.
    want = math.exp(math.lgamma(172) - 171 * math.log(1e3))
    assert ServiceDistribution.exponential(1e3).moment(171) == pytest.approx(
        want, rel=1e-12)
    assert ServiceDistribution.exponential(2.0).moment(200) == math.inf
    assert ServiceDistribution.exponential(1e-3).moment(120) == math.inf


@pytest.mark.parametrize("mu,m,k,expected", [
    (100.0, 171, 1, math.exp(math.lgamma(172) - 171 * math.log(100.0))),
    (2.0, 200, 1, math.inf),     # 200! overflows, and so does the moment
    (1e-3, 120, 1, math.inf),    # (k mu)^m underflows to 0.0
])
def test_exponential_min_moment_finishes_in_log_space(mu, m, k, expected):
    got = distributions._exponential_min_moment(mu, m, k)
    assert got == pytest.approx(expected, rel=1e-12)


def test_moment_callable_override_wins():
    d = ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.0, moment=lambda m: 99.0)
    assert d.moment(3) == 99.0


@pytest.mark.parametrize("m,k,expected", [
    (1, 1, 0.4),
    (2, 1, 0.32),
    (2, 3, 2.0 / 56.25),
    (5, 2, math.factorial(5) / 5.0 ** 5),
])
def test_min_moment_exponential_closed_form(m, k, expected):
    d = ServiceDistribution.exponential(MU)
    assert min_moment(d, m, k) == pytest.approx(expected, rel=1e-15)


def test_min_moment_rejects_bad_orders():
    d = ServiceDistribution.exponential(MU)
    with pytest.raises(ValueError):
        min_moment(d, 0, 1)
    with pytest.raises(ValueError):
        min_moment(d, 1, 0)


def test_min_moment_quadrature_matches_closed_form():
    """User-callable law against the exponential closed form.

    m y^{m-1} Gbar(y)^k integrates to m! / (k mu)^m; the quadrature path only
    sees the callables.  The tail of 1 - cdf(y) carries roundoff noise of
    order 1e-16, which caps the achievable relative accuracy for high orders
    near 1e-7; low orders are much tighter.
    """
    d = wrapped_exponential()
    for m in range(1, 13):
        for k in range(1, 13):
            exact = math.factorial(m) / (k * MU) ** m
            got = min_moment(d, m, k)
            tol = 1e-9 if (m <= 6 and k <= 6) else 1e-6
            assert got == pytest.approx(exact, rel=tol), (m, k)


def test_min_moment_uniform_support():
    d = ServiceDistribution.from_callables(
        pdf=lambda y: 1.0 if 0.0 <= y <= 1.0 else 0.0,
        cdf=lambda y: min(max(y, 0.0), 1.0),
        name="uniform")
    assert min_moment(d, 1, 2) == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_min_moment_pareto_finite_case():
    # min of two pareto(1.5) tails has survival (1+y)^-3, so the mean is 1/2.
    assert min_moment(pareto(), 1, 2) == pytest.approx(0.5, rel=1e-6)


def test_min_moment_pareto_divergent_case():
    # E[Y^2] for a single pareto(1.5) draw is infinite and must be refused.
    with pytest.raises(DivergentMomentError):
        min_moment(pareto(), 2, 1)
    with pytest.raises(DivergentMomentError):
        pareto().moment(2)


def test_exact_sf_certifies_a_support_that_ends_mid_octave():
    # Uniform on [0, 2]: the octaves [0, 1] and [1, 2] hold equal mass, which
    # the certification cannot tell from a tail cut off by cdf rounding.
    with pytest.raises(DivergentMomentError):
        min_moment(uniform(2.0), 2, 1)
    d = uniform(2.0, exact_sf=True)
    assert d.sf(0.5) == 0.75 and d.sf(3.0) == 0.0
    assert min_moment(d, 2, 1) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_exact_sf_keeps_the_divergence_checks():
    d = pareto(exact_sf=True)
    assert min_moment(d, 1, 2) == pytest.approx(0.5, rel=1e-6)
    with pytest.raises(DivergentMomentError):
        min_moment(d, 2, 1)


@pytest.mark.parametrize("law", [wrapped_exponential(), uniform(0.5)],
                         ids=["wrapped-exp", "uniform"])
def test_gamma_table_entries_equal_memo_free_min_moments(law):
    # One table for all entries, so later entries read tails memoized by
    # earlier ones.
    table = GammaTable(law)
    for m in range(1, 13):
        for k in range(1, 13):
            assert table.gamma(m, k) == min_moment(law, m, k), (m, k)
    assert table._tails


# A warning raised in a worker ends that thread, so the results miss entries.
@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_gamma_table_shared_between_threads():
    law = wrapped_exponential()
    pairs = [(m, k) for m in range(1, 6) for k in range(1, 6)]
    want = {p: min_moment(law, *p) for p in pairs}
    table = GammaTable(law)
    got = [{} for _ in range(4)]

    def work(w):
        for p in pairs[w::2] + pairs[::-1]:
            got[w][p] = table.gamma(*p)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert all(g == want for g in got)


def test_gamma_table_exponential_ratio_is_exact():
    table = GammaTable(ServiceDistribution.exponential(MU))
    assert table.ratio(5, 3) == 3.0 ** -5
    assert table.ratio(1, 1) == 1.0
    # Exact even where the raw moments would overflow a float.
    assert table.ratio(400, 2) == 2.0 ** -400


def test_exponential_gammas_read_the_closed_form_bit_for_bit():
    """The direct read gives the floats the table stores: finite entries,
    entries past double range (inf) and powers that underflow (0.0)."""
    m, k = np.arange(1, 401)[:, None], np.arange(1, 41)[None, :]
    seen = []
    for mu in (1e-3, MU, 1e3):
        law = ServiceDistribution.exponential(mu)
        direct, filled = GammaTable(law), GammaTable(law)
        got, want = direct.gammas(m, k), filled._entries(m, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), mu
        seen.append(got)
        # The direct read stores nothing; the table's own path fills.
        assert (1, 1) not in direct and (1, 1) in filled
        assert direct.gammas(1, [1, 3, 2]).tolist() == [
            want[0, 0], want[0, 2], want[0, 1]]
        assert direct.gammas(np.int64(4), 2) == want[3, 1]
    seen = np.concatenate(seen)
    assert np.isinf(seen).any() and (seen == 0.0).any()
    table = GammaTable(ServiceDistribution.exponential(MU))
    for ms, ks in (([0, 1], 1), (1, [-2])):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            table.gammas(ms, ks)


def test_gamma_table_user_ratio():
    table = GammaTable(wrapped_exponential())
    assert table.ratio(3, 2) == pytest.approx(2.0 ** -3, rel=1e-9)


def test_gamma_table_memoizes():
    counter = {"cdf": 0}
    table = GammaTable(wrapped_exponential(counter=counter))
    first = table.gamma(2, 1)
    calls_after_first = counter["cdf"]
    assert calls_after_first > 0
    second = table.gamma(2, 1)
    assert second == first
    assert counter["cdf"] == calls_after_first


def test_a_held_block_reads_without_quadrature_and_equals_a_cold_read(
        monkeypatch):
    law = ServiceDistribution.from_callables(
        pdf=lambda y: 100.0 * y * np.exp(-10.0 * y),
        cdf=numpy_erlang2(10.0), name="erlang2")
    m, k = np.arange(2, 10)[:, None], np.arange(1, 12)
    warm = GammaTable(law)
    warm.ratios(np.arange(1, 12)[:, None], np.arange(1, 14))
    cold = GammaTable(law).ratios(m, k)
    calls = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        calls.append(len(pairs))
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    got = warm.ratios(m, k)
    assert calls == []
    assert got.tobytes() == cold.tobytes()
    assert np.array_equal(got, warm.gammas(m, k) / warm.gammas(m, 1))


# ------------------------------------------------- batched quadrature ----

def quadpack_min_moment(d, m, k, memo):
    """The per-entry QUADPACK quadrature that the batched engine replaced,
    kept as its reference: scipy.integrate.quad octave by octave, with the
    same tolerances, panel limit, error gate, extension and certification.
    memo maps nodes to clamped tails, as the table's node memo did.
    """
    from scipy import integrate

    def tail(y):
        val = memo.get(y)
        if val is None:
            val = memo[y] = max(float(d.sf(y)), 0.0)
        return val

    y_max = tail_support(d, 1e-14, k, tail)

    def integrand(y):
        return m * y ** (m - 1) * tail(y) ** k

    def octave(lo, hi):
        return integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11,
                              limit=200, full_output=1)[:2]

    pieces, errs = [], []
    lo, hi = 0.0, 1.0
    while lo < y_max:
        v, err = octave(lo, hi)
        pieces.append(v)
        errs.append(err)
        lo, hi = hi, 2.0 * hi
    val, err = math.fsum(pieces), math.fsum(errs)
    if not math.isfinite(val) or err > max(1e-7, 1e-3 * abs(val)):
        raise DivergentMomentError(f"quadrature failed for m={m}, k={k}")
    for _ in range(24):
        piece = octave(lo, hi)[0]
        pieces.append(piece)
        val += piece
        lo, hi = hi, 2.0 * hi
        if abs(piece) <= max(1e-12, 1e-9 * abs(val)):
            break
    else:
        raise DivergentMomentError(f"m={m}, k={k} keeps growing")
    material = [p for p in pieces if abs(p) > 1e-6 * abs(val)]
    if (d._sf is None and len(material) >= 2
            and abs(material[-1]) > 0.9 * abs(material[-2])):
        raise DivergentMomentError(f"cannot certify tail decay for m={m}, k={k}")
    return val


def erlang2(rate=10.0, exact_sf=False):
    """Erlang-2 law as numpy expressions, which map arrays to arrays."""

    def sf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 1.0, (1.0 + rate * y) * np.exp(-rate * y))

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, 1.0 - (1.0 + rate * y) * np.exp(-rate * y))

    return ServiceDistribution.from_callables(
        lambda y: rate * rate * y * np.exp(-rate * y), cdf, name="erlang2",
        sf=sf if exact_sf else None)


def numpy_uniform(b, exact_sf=False):
    """Uniform(0, b) as numpy expressions."""

    def cdf(y):
        return np.clip(np.asarray(y, dtype=float) / b, 0.0, 1.0)

    def sf(y):
        return np.clip(1.0 - np.asarray(y, dtype=float) / b, 0.0, 1.0)

    return ServiceDistribution.from_callables(
        lambda y: 0.0, cdf, name=f"uniform({b})", sf=sf if exact_sf else None)


def hyperexponential_with_sf():
    def sf(y):
        return 0.5 * np.exp(-5.0 * y) + 0.5 * np.exp(-5.0 * y / 3.0)

    return ServiceDistribution.from_callables(
        lambda y: 0.0, lambda y: 1.0 - sf(y), name="hyperexp", sf=sf)


ORDERS = range(1, 34)


def test_batched_entries_match_closed_forms():
    """m, k <= 33 against closed forms for laws with an exact tail.

    uniform(0, c): c^m m! k! / (m+k)!.  Erlang-2 with rate r:
    sum_j C(k,j) r^j m (m+j-1)! / (kr)^(m+j).  Entries down to 1e-60 are
    held to the quadrature's absolute tolerance, 1e-12, and large ones to
    1e-12 relative.
    """
    c, r = 0.5, 10.0
    pairs = [(m, k) for m in ORDERS for k in ORDERS]
    ms, ks = np.array(pairs).T
    uni = GammaTable(numpy_uniform(c, exact_sf=True)).gammas(ms, ks)
    erl = GammaTable(erlang2(r, exact_sf=True)).gammas(ms, ks)
    for (m, k), got_u, got_e in zip(pairs, uni, erl):
        want_u = (c ** m * math.factorial(m) * math.factorial(k)
                  / math.factorial(m + k))
        want_e = math.fsum(math.comb(k, j) * r ** j * m
                           * math.factorial(m + j - 1) / (k * r) ** (m + j)
                           for j in range(k + 1))
        assert got_u == pytest.approx(want_u, rel=1e-12, abs=1e-12), (m, k)
        assert got_e == pytest.approx(want_e, rel=1e-12, abs=1e-12), (m, k)


@pytest.mark.parametrize("law,exact_upto", [
    (wrapped_exponential(), 8),
    (erlang2(), 8),
    (numpy_uniform(0.5), 33),
    (hyperexponential_with_sf(), 33),
], ids=["wrapped-exp", "erlang2", "uniform", "hyperexp-sf"])
def test_batched_entries_match_the_quadpack_reference(law, exact_upto):
    """Every m, k <= 33 against the per-entry QUADPACK quadrature.

    Both sides fail on the same entries, with the same exception type.
    Ratios gamma_{m,k}/gamma_{m,1} agree within 1e-10 and gamma_{m,1}
    within 1e-10 relative.  A tail computed as 1 - cdf carries roundoff
    noise that the integrand magnifies by y^(m-1), and two quadratures that
    both meet the absolute tolerance 1e-12 integrate that noise differently,
    so for those laws gamma_{m,1} is compared up to m = 8 only.
    """
    memo, want = {}, {}
    for m in ORDERS:
        for k in ORDERS:
            try:
                want[(m, k)] = quadpack_min_moment(law, m, k, memo)
            except DivergentMomentError:
                want[(m, k)] = None
    table = GammaTable(law)
    good = [p for p, v in want.items() if v is not None]
    got = dict(zip(good, table.gammas(*np.array(good).T).tolist()))
    for p, v in want.items():
        if v is None:
            with pytest.raises(DivergentMomentError):
                table.gamma(*p)
    for (m, k), v in want.items():
        if v is None or want[(m, 1)] is None:
            continue
        if k == 1 and m <= exact_upto:
            assert abs(got[(m, 1)] / v - 1.0) <= 1e-10, m
        assert abs(got[(m, k)] / got[(m, 1)] - v / want[(m, 1)]) <= 1e-10, (
            m, k)


@pytest.mark.parametrize("law", [wrapped_exponential(), erlang2(),
                                 numpy_uniform(0.5)],
                         ids=["wrapped-exp", "erlang2", "uniform"])
def test_entry_values_do_not_depend_on_the_batch(law):
    """An entry computed alone, inside two different blocks, and through a
    memo warmed by other entries is the same float."""
    pairs = [(2, 3), (7, 1), (9, 9), (12, 5)]
    alone = [min_moment(law, m, k) for m, k in pairs]
    square = GammaTable(law)
    idx = np.arange(1, 14)
    block = square.gammas(idx[:, None], idx[None, :])
    column = GammaTable(law)
    column.gammas(np.array([m for m, _ in pairs] + [20, 1]),
                  np.array([k for _, k in pairs] + [2, 30]))
    warm = GammaTable(law)
    warm.gammas(np.arange(14, 20), 4)
    assert warm._tails
    for (m, k), want in zip(pairs, alone):
        assert block[m - 1, k - 1] == want, (m, k)
        assert column.gamma(m, k) == want, (m, k)
        assert warm.gamma(m, k) == want, (m, k)


def test_blocks_from_threads_sharing_a_table():
    law = erlang2()
    idx = np.arange(1, 9)
    want = np.array([[min_moment(law, m, k) for k in idx] for m in idx])
    table = GammaTable(law)
    got = [None] * 4

    def work(w):
        # Overlapping blocks: rows from w on, then the whole square.
        table.gammas(idx[w:, None], idx[None, :])
        got[w] = table.gammas(idx[:, None], idx[None, :])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for g in got:
        assert np.array_equal(g, want)

def test_a_scalar_only_cdf_still_integrates():
    # math.expm1 rejects the node array, so the tail is taken node by node.
    law = ServiceDistribution.from_callables(
        lambda y: 0.0, lambda y: -math.expm1(-MU * y), name="math-exp")
    got = GammaTable(law).gammas(np.array([1, 3, 5]), np.array([1, 2, 4]))
    want = [math.factorial(m) / (k * MU) ** m for m, k in ((1, 1), (3, 2), (5, 4))]
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_a_failing_block_raises_its_first_failure_and_caches_the_rest():
    counter = {"cdf": 0}

    def cdf(y):
        counter["cdf"] += 1
        return 1.0 - (1.0 + y) ** (-1.5) if y >= 0 else 0.0

    table = GammaTable(ServiceDistribution.from_callables(
        lambda y: 0.0, cdf, name="pareto"))
    idx = np.arange(1, 4)
    # E[min^2] of one Pareto(1.5) draw diverges; (2, 1) is the first such
    # entry in row-major order.
    with pytest.raises(DivergentMomentError, match="m=2, k=1"):
        table.gammas(idx[:, None], idx[None, :])
    assert (1, 1) in table and (3, 3) in table
    calls = counter["cdf"]
    for m in idx:
        for k in idx:
            try:
                table.gamma(int(m), int(k))
            except DivergentMomentError:
                assert (int(m), int(k)) not in table
    assert counter["cdf"] == calls


def test_a_nan_entry_is_refused_and_not_stored():
    # exponential() refuses a NaN rate, so the law is built around it.
    law = dataclasses.replace(ServiceDistribution.exponential(1.0), mu=math.nan)
    table = GammaTable(law)
    for _ in range(2):
        with pytest.raises(DivergentMomentError, match="m=1, k=1 is NaN"):
            table.gammas([1, 2], 1)
    assert (1, 1) not in table and table._failed.keys() == {(1, 1), (2, 1)}


def uniform_gamma(b, m, k):
    return b ** m * math.factorial(m) * math.factorial(k) / math.factorial(m + k)


@pytest.mark.parametrize("law", [erlang2(exact_sf=True),
                                 numpy_uniform(0.5, exact_sf=True)],
                         ids=["erlang2", "uniform"])
def test_the_store_grows_block_by_block_to_the_memo_free_entries(law):
    idx = np.arange(1, 41)
    want = np.array([[min_moment(law, m, k) for k in idx] for m in idx])
    tiles = [(r, c) for r in range(0, 40, 8) for c in range(0, 40, 10)]
    random.Random(16).shuffle(tiles)
    # Shell by shell out from the corner, so the store grows several times;
    # the order inside a shell stays shuffled.
    tiles.sort(key=lambda t: max(t[0] // 8, t[1] // 10))
    table = GammaTable(law)
    shapes = []
    for r, c in tiles:
        got = table.gammas(idx[r:r + 8, None], idx[None, c:c + 10])
        assert np.array_equal(got, want[r:r + 8, c:c + 10]), (r, c)
        shapes.append(table._values.shape)
    assert len(set(shapes)) > 2 and shapes[-1] == (41, 41)
    assert np.array_equal(table._values[1:, 1:], want)
    assert np.isnan(table._values[0]).all() and np.isnan(table._values[:, 0]).all()


def test_four_threads_grow_one_store():
    law = erlang2(exact_sf=True)
    idx = np.arange(1, 25)
    want = np.array([[min_moment(law, m, k) for k in idx] for m in idx])
    tiles = [(r, c) for r in range(0, 24, 6) for c in range(0, 24, 8)]
    table = GammaTable(law)
    got = [{} for _ in range(4)]

    def work(w):
        # Each thread walks the tiles in its own order, so the store grows
        # under all of them at once.
        for r, c in random.Random(w).sample(tiles, len(tiles)):
            got[w][(r, c)] = table.gammas(idx[r:r + 6, None],
                                          idx[None, c:c + 8])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for g in got:
        assert len(g) == len(tiles)
        for (r, c), block in g.items():
            assert np.array_equal(block, want[r:r + 6, c:c + 8]), (r, c)
    assert np.array_equal(table._values[1:, 1:], want)


def test_a_failed_entry_raises_its_stored_error_without_quadrature(monkeypatch):
    table = GammaTable(pareto())
    with pytest.raises(DivergentMomentError) as first:
        table.gammas(np.arange(1, 4)[:, None], 1)
    batches = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        batches.append(pairs)
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    for read in (lambda: table.gamma(2, 1), lambda: table.gammas([2, 3], 1),
                 lambda: table.ratios(2, [1, 2])):
        with pytest.raises(DivergentMomentError) as again:
            read()
        assert str(again.value) == str(first.value)
    # ratios read (2, 2), which no earlier block held; nothing else ran.
    assert batches == [[(2, 2)]]
    assert np.isnan(table._values[2, 1]) and table._values[1, 1] > 0.0


@pytest.mark.parametrize("b", [1e-3, 1e-2])
def test_a_law_below_the_first_nodes_gets_its_min_moments(b):
    # Every Gauss-Kronrod node of the [0, 1] octave lies past uniform(0,
    # 1e-3), and y^(m-1) underflows at those inside uniform(0, 1e-2) from
    # m = 123 on; both once read 0.0.
    law = numpy_uniform(b, exact_sf=True)
    table = GammaTable(law)
    pairs = ([(m, k) for m in range(1, 9) for k in range(1, 9)] if b == 1e-3
             else [(m, 1) for m in range(123, 151)])
    for m, k in pairs:
        assert table.gamma(m, k) == pytest.approx(uniform_gamma(b, m, k),
                                                  rel=1e-10), (m, k)
        assert min_moment(law, m, k) == table.gamma(m, k)
    # Past double range the entry is refused, not read as 0.0.
    with pytest.raises(DivergentMomentError, match="reads 0.0"):
        table.gamma(170, 1)


def test_divergent_and_stuck_tails_still_raise():
    with pytest.raises(DivergentMomentError):
        GammaTable(pareto()).gammas(2, 1)
    stuck = ServiceDistribution.from_callables(
        lambda y: 0.0, lambda y: 0.5, name="stuck")
    with pytest.raises(DivergentMomentError):
        min_moment(stuck, 1, 1)


def test_laplace_transform_values():
    a = ArrivalDistribution.poisson(0.85)
    assert a.laplace(1.0) == pytest.approx(0.85 / 1.85, rel=1e-15)
    assert a.laplace(0.0) == 1.0
    d = ArrivalDistribution.deterministic(math.log(2.0))
    assert d.laplace(1.0) == pytest.approx(0.5, rel=1e-15)


def test_laplace_transform_is_decreasing():
    a = ArrivalDistribution.poisson(0.85)
    vals = [a.laplace(s) for s in np.linspace(0.0, 10.0, 41)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_laplace_transform_rejects_negative_argument():
    with pytest.raises(ValueError):
        ArrivalDistribution.poisson(1.0).laplace(-0.5)


def test_lorden_constant():
    assert ArrivalDistribution.poisson(3.0).b0 == pytest.approx(2.0, rel=1e-15)
    assert ArrivalDistribution.deterministic(0.7).b0 == pytest.approx(1.0, rel=1e-15)


def test_arrival_sampling():
    rng = np.random.default_rng(5)
    a = ArrivalDistribution.poisson(2.0)
    draws = a.sample(rng, 20000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3.0 * se
    det = ArrivalDistribution.deterministic(0.3).sample(rng, 16)
    assert np.all(det == 0.3)


def test_service_sampling_exponential():
    rng = np.random.default_rng(7)
    draws = ServiceDistribution.exponential(MU).sample(rng, 20000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / MU) < 3.0 * se


def test_service_sampling_inversion_fallback():
    # No sampler callable given, so draws come from bisecting the cdf.
    rng = np.random.default_rng(11)
    draws = wrapped_exponential().sample(rng, 4000)
    assert np.all(draws >= 0.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / MU) < 3.5 * se


def numpy_erlang2(rate, counter=None):
    """Erlang-2 cdf written with numpy, so it maps arrays to arrays."""

    def cdf(y):
        if counter is not None:
            counter["cdf"] += 1
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, 1.0 - (1.0 + rate * y) * np.exp(-rate * y))

    return cdf


def test_inversion_bisects_whole_arrays_when_the_cdf_takes_them():
    counter = {"cdf": 0}
    cdf = numpy_erlang2(10.0, counter)
    on_arrays = ServiceDistribution.from_callables(lambda y: 0.0, cdf)
    # float() of a two-element array raises, so this law takes the
    # per-element path through np.vectorize.
    on_scalars = ServiceDistribution.from_callables(
        lambda y: 0.0, lambda y: float(numpy_erlang2(10.0)(y)))
    got = on_arrays.sample(np.random.default_rng(17), 2000)
    calls = counter["cdf"]
    assert calls < 300
    want = on_scalars.sample(np.random.default_rng(17), 2000)
    assert np.array_equal(got, want)
    se = got.std(ddof=1) / math.sqrt(got.size)
    assert abs(got.mean() - 0.2) < 3.5 * se


def test_inversion_still_samples_a_scalar_only_math_cdf():
    # math.expm1 rejects an array with TypeError; wrapped_exponential's
    # comparison y >= 0 rejects one with ValueError.
    d = ServiceDistribution.from_callables(
        lambda y: 0.0, lambda y: -math.expm1(-2.0 * y), name="math-exp")
    draws = d.sample(np.random.default_rng(19), 2000)
    assert np.all(draws >= 0.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3.5 * se


def test_user_sampler_callable_wins():
    d = ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.0,
        sampler=lambda rng, size: np.full(size, 0.125))
    out = d.sample(np.random.default_rng(0), 9)
    assert np.all(out == 0.125)


def test_validate_exponential_service_ok():
    rep = validate(ServiceDistribution.exponential(MU))
    assert rep.ok
    assert rep.issues == []
    assert rep.normalization_defect < 1e-8
    assert rep.to_dict()["ok"] is True


def test_validate_flags_defective_density():
    # cdf is a proper law but the density only carries 98% of the mass.
    rep = validate(ServiceDistribution.from_callables(
        pdf=lambda y: 0.98 * MU * math.exp(-MU * y) if y >= 0 else 0.0,
        cdf=lambda y: -math.expm1(-MU * y) if y >= 0 else 0.0,
        name="leaky"))
    assert not rep.ok
    assert any("integrates" in msg for msg in rep.issues)
    assert rep.normalization_defect == pytest.approx(0.02, abs=1e-4)


def test_validate_compares_an_exact_sf_with_the_cdf():
    assert validate(uniform(2.0, exact_sf=True)).ok
    off = ServiceDistribution.from_callables(
        pdf=lambda y: MU * math.exp(-MU * y) if y >= 0 else 0.0,
        cdf=lambda y: -math.expm1(-MU * y) if y >= 0 else 0.0,
        sf=lambda y: (1.0 + 1e-8) * math.exp(-MU * y) if y >= 0 else 1.0,
        name="off-sf")
    rep = validate(off)
    assert not rep.ok
    assert any("sf differs" in msg for msg in rep.issues)


def test_validate_flags_zero_interarrival_spacing():
    rep = validate(ArrivalDistribution.deterministic(0.0))
    assert not rep.ok
    assert any("positive" in msg for msg in rep.issues)


def test_validate_flags_jensen_violation():
    bad = ArrivalDistribution.from_callables(
        sampler=lambda rng, size: np.full(size, 1.0),
        laplace=lambda s: math.exp(-s),
        mean=1.0, second_moment=0.5)
    rep = validate(bad)
    assert not rep.ok
    assert any("Jensen" in msg for msg in rep.issues)


def test_validate_flags_a_laplace_transform_that_leaves_the_open_unit_interval():
    bad = ArrivalDistribution.from_callables(
        sampler=None, laplace=lambda s: 1.0 if s == 0 else 0.0,
        mean=1.0, second_moment=1.0)
    rep = validate(bad)
    assert rep.issues == ["Bhat(s) leaves (0,1) for s > 0 on the probe grid"]


def test_validate_arrival_laws_ok():
    assert validate(ArrivalDistribution.poisson(0.85)).ok
    assert validate(ArrivalDistribution.deterministic(1.0)).ok


def _exp_pdf(y):
    return math.exp(-y) if y >= 0 else 0.0


def _exp_cdf(y):
    return -math.expm1(-y) if y >= 0 else 0.0


def _diverges(m):
    raise DivergentMomentError(f"moment {m} diverges")


@pytest.mark.parametrize("law,problem", [
    (ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.5 if y > 0 else 0.0,
        name="half"), "tail of half does not fall below"),
    (ServiceDistribution.from_callables(
        pdf=_exp_pdf, cdf=lambda y: 0.1 + 0.9 * _exp_cdf(y), name="atom"),
     "G(0) = 0.1, expected 0"),
    (ServiceDistribution.from_callables(
        pdf=_exp_pdf, cdf=lambda y: _exp_cdf(y) - (0.3 if 1 < y < 2 else 0.0),
        name="dip"), "cdf decreases somewhere"),
    (ServiceDistribution.from_callables(
        pdf=_exp_pdf, cdf=_exp_cdf, moment=lambda m: math.inf,
        name="inf-moment"), "moment 1 is not finite"),
    (ServiceDistribution.from_callables(
        pdf=_exp_pdf, cdf=_exp_cdf, moment=_diverges, name="divergent"),
     "moment 2: moment 2 diverges"),
    (pareto(1.5), "moment 2: cannot certify tail decay"),
    (ArrivalDistribution.from_callables(
        sampler=None, laplace=lambda s: 0.9 * math.exp(-s), mean=1.0,
        second_moment=1.0), "Bhat(0) = 0.9, expected 1"),
    (ArrivalDistribution.from_callables(
        sampler=None, mean=1.0, second_moment=1.0,
        laplace=lambda s: math.exp(-s) + (0.1 if 5 < s < 6 else 0.0)),
     "Bhat increases somewhere"),
    (ArrivalDistribution.from_callables(
        sampler=None, laplace=lambda s: 1.0 / (s - 10.0) if s else 1.0,
        mean=1.0, second_moment=1.0), "Laplace transform probe failed"),
], ids=["tail-never-decays", "atom-at-zero", "decreasing-cdf",
        "infinite-moment", "divergent-moment", "pareto-second-moment",
        "bhat-at-zero", "increasing-bhat", "laplace-raises"])
def test_validate_reports_each_structural_problem(law, problem):
    rep = validate(law)
    assert not rep.ok and not rep.to_dict()["ok"]
    assert any(problem in msg for msg in rep.to_dict()["issues"])


def test_validate_rejects_foreign_objects():
    with pytest.raises(TypeError):
        validate(42)


@pytest.mark.parametrize("m", [150, 200], ids=["past-y-max", "through-y-max"])
def test_a_power_past_double_range_is_refused_as_python_refuses_it(m):
    """For rate 1, Y_max = 64.  At m = 150 the octaves through Y_max keep
    y^(m-1) finite and only the octave past it overflows (128^149); at
    m = 200 an octave through Y_max overflows already (64^199).  Either
    entry is refused with the OverflowError y ** (m - 1) raises for a
    Python float."""
    law = ServiceDistribution.from_callables(
        lambda y: math.exp(-y) if y >= 0 else 0.0,
        lambda y: -math.expm1(-y) if y >= 0 else 0.0,
        sf=lambda y: math.exp(-y) if y >= 0 else 1.0, name="exact-sf-exp")
    with pytest.raises(OverflowError) as caught:
        distributions.min_moment(law, m, 1)
    assert caught.value.args == (34, "Numerical result out of range")
