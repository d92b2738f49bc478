"""Distribution layer: closed forms, min-moment quadrature, validation."""

import math
import sys
import threading

import numpy as np
import pytest

from gatedq.distributions import (
    ArrivalDistribution,
    DivergentMomentError,
    GammaTable,
    ServiceDistribution,
    min_moment,
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


def test_validate_arrival_laws_ok():
    assert validate(ArrivalDistribution.poisson(0.85)).ok
    assert validate(ArrivalDistribution.deterministic(1.0)).ok


def test_validate_rejects_foreign_objects():
    with pytest.raises(TypeError):
        validate(42)
