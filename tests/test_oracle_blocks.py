"""Array-native coefficient oracles against per-entry reference formulas.

The reference functions below evaluate one coefficient at a time with
Python floats, exactly as the scalar oracles did before the oracles took
index arrays.  Closed forms may differ from them in the last digits, because
numpy's vectorized pow is not libm's (up to 2e-14 relative at index 256), so
they are compared at rtol = 1e-13 with the same infinite entries; the
quadrature-backed oracle does the same arithmetic and must match exactly.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedq import giqueue, linsys, mgqueue
from gatedq.distributions import (
    ArrivalDistribution,
    GammaTable,
    ServiceDistribution,
)
from gatedq.errors import OutOfRegimeError
from gatedq.linsys import dominance_report, truncate

N = 256
RHO_GRID = (1e-3, 0.05, 0.25, 0.5, 0.75, 0.94)


def _pow_or(base: float, exp: float, overflow: float) -> float:
    try:
        return base ** exp
    except OverflowError:
        return overflow


def reference_mg_transformed(rho):
    def a(i: int, j: int) -> float:
        if i == 1:
            if j == 1:
                return (1.0 + rho - rho * rho) / (1.0 + rho)
            return (-1.0) ** j * rho * rho / (j * (j + rho))
        if j == 1:
            return -rho ** (i / 2.0)
        if j == i:
            lead = _pow_or(rho, -i / 2.0, math.inf)
            corr = _pow_or(float(i), float(i), math.inf)
            return lead + (-1.0) ** i * rho ** (i / 2.0) / corr
        return (-1.0) ** j * (math.sqrt(rho) / j) ** i
    return a


def reference_gi_poisson(rho):
    def a(i: int, j: int) -> float:
        if i == 1:
            if j == 1:
                return -(1.0 - rho)
            return (-1.0) ** (j - 1) * rho / (j * j)
        if j == i:
            corr = _pow_or(float(i), float(i), math.inf)
            lead = _pow_or(rho, -i / 2.0, math.inf)
            return ((1.0 + rho / i) * (-1.0) ** (i - 1) * rho ** (i / 2.0 - 1.0)
                    / corr - lead / i)
        denom = _pow_or(float(j), float(i), math.inf)
        return (-1.0) ** (j - 1) * (1.0 + rho / j) * rho ** (i / 2.0 - 1.0) / denom
    return a


def reference_gi_general(model):
    def a_mk(m: int, k: int) -> float:
        bk = model.bhat(k)
        try:
            return bk ** (m - 1) / (1.0 - bk) ** m
        except (OverflowError, ZeroDivisionError):
            return math.inf

    def a(i: int, j: int) -> float:
        if i == 1:
            b1 = model.bhat(1)
            if j == 1:
                return -(1.0 - 2.0 * b1) / (1.0 - b1)
            bj = model.bhat(j)
            return (-1.0) ** (j - 1) * bj / (j * (1.0 - bj))
        if j == i:
            return ((-1.0) ** (i - 1) * a_mk(i, i) - 1.0) / i
        return (-1.0) ** (j - 1) * a_mk(i, j) / j
    return a


def reference_mg_general(lam, table):
    def a(mi: int, mj: int) -> float:
        i, j = mi + 1, mj + 1
        val = -((-1.0) ** j) * (1.0 - table.ratio(i, j))
        if i == j:
            try:
                val += math.factorial(i) / (lam ** i * table.gamma(i, 1))
            except (OverflowError, ZeroDivisionError):
                return math.inf
        return val
    return a


def mg_model(rho):
    return mgqueue.MgModel(rho, ServiceDistribution.exponential(1.0))


def gi_poisson_model(rho):
    return giqueue.GiModel(ArrivalDistribution.poisson(rho), 1.0)


def gi_deterministic_model(rho):
    return giqueue.GiModel(ArrivalDistribution.deterministic(1.0 / rho), 1.0)


CLOSED_FORMS = {
    "mg-transformed": (lambda rho: mgqueue.moment_oracle(mg_model(rho)),
                       reference_mg_transformed),
    "gi-poisson": (lambda rho: giqueue.factorial_oracle(gi_poisson_model(rho)),
                   reference_gi_poisson),
    "gi-deterministic": (
        lambda rho: giqueue.factorial_oracle(gi_deterministic_model(rho)),
        lambda rho: reference_gi_general(gi_deterministic_model(rho))),
}


def reference_block(a, n):
    return np.array([[a(i, j) for j in range(1, n + 1)]
                     for i in range(1, n + 1)])


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
def test_closed_form_blocks_match_per_entry_formulas(kind):
    make_oracle, make_reference = CLOSED_FORMS[kind]
    idx = np.arange(1, N + 1)
    for rho in RHO_GRID:
        block = make_oracle(rho).a(idx[:, None], idx[None, :])
        ref = reference_block(make_reference(rho), N)
        assert block.shape == (N, N)
        np.testing.assert_array_equal(np.isinf(block), np.isinf(ref))
        np.testing.assert_allclose(block, ref, rtol=1e-13, atol=0.0,
                                   err_msg=f"{kind} at rho={rho}")


def test_general_mg_block_equals_per_entry_formula():
    service = ServiceDistribution.from_callables(
        pdf=lambda y: 2.5 * math.exp(-2.5 * y) if y >= 0 else 0.0,
        cdf=lambda y: -math.expm1(-2.5 * y) if y >= 0 else 0.0,
        name="wrapped-exp")
    model = mgqueue.MgModel(lam=0.5, service=service)
    table = GammaTable(service)
    oracle = mgqueue.moment_oracle(model, table=table)
    n = 6
    idx = np.arange(1, n + 1)
    block = oracle.a(idx[:, None], idx[None, :])
    ref = reference_block(reference_mg_general(model.lam, table), n)
    np.testing.assert_array_equal(block, ref)
    assert oracle.a(2, 2) == ref[1, 1]


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(CLOSED_FORMS)),
       rho=st.floats(min_value=0.01, max_value=0.94),
       n=st.integers(min_value=1, max_value=64))
def test_truncation_is_the_leading_block_of_the_next_rung(kind, rho, n):
    oracle = CLOSED_FORMS[kind][0](rho)
    small, large = truncate(oracle, n), truncate(oracle, 2 * n)
    np.testing.assert_array_equal(small.a, large.a[:n, :n])
    np.testing.assert_array_equal(small.b, large.b[:n])


# ------------------------------------------------- probe-sized blocks, bit for bit

def per_entry_gi_general_a(model, i, j):
    """The general GI oracle's a(i, j) with one bhat call per block entry,
    as it was before bhat was read once per distinct column."""
    i, j = np.asarray(i), np.asarray(j)
    b1 = model.bhat(1)
    bj = np.reshape([model.bhat(int(k)) for k in j.flat], j.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        row1 = np.where(j == 1, -(1.0 - 2.0 * b1) / (1.0 - b1),
                        (-1.0) ** (j - 1) * bj / (j * (1.0 - bj)))
        den = (1.0 - bj) ** i
        a_ij = np.where(den == 0.0, np.inf, bj ** (i - 1) / den)
        return np.where(i == 1, row1, np.where(
            j == i, ((-1.0) ** (i - 1) * a_ij - 1.0) / i,
            (-1.0) ** (j - 1) * a_ij / j))


def gi_erlang2_model(rho):
    """Erlang-2 interarrivals of mean 1/rho, given only as callables."""
    rate = 2.0 * rho
    return giqueue.GiModel(ArrivalDistribution.from_callables(
        sampler=lambda rng, size: rng.gamma(2.0, 1.0 / rate, size),
        laplace=lambda s: (rate / (rate + s)) ** 2,
        mean=1.0 / rho, second_moment=1.5 / rho ** 2, name="erlang2"), 1.0)


@pytest.mark.parametrize("make_model", [gi_deterministic_model,
                                        gi_erlang2_model])
@pytest.mark.parametrize("rho", [0.05, 0.3, 0.6])
@pytest.mark.parametrize("shape", [(200, 50), (50, 200)])
def test_general_gi_probe_blocks_equal_the_per_entry_bhat_reference(
        make_model, rho, shape):
    rows, cols = (np.arange(1, n + 1) for n in shape)
    oracle = giqueue._general_oracle(make_model(rho))
    block = (rows[:, None], cols[None, :])
    for i, j in (block, np.broadcast_arrays(*block), (rows, rows)):
        got = oracle.a(i, j)
        want = per_entry_gi_general_a(make_model(rho), i, j)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("make_oracle", [
    lambda: mgqueue.moment_oracle(mg_model(0.5)),
    lambda: mgqueue.moment_oracle(mg_model(0.5), assembly="general"),
    lambda: giqueue.factorial_oracle(gi_poisson_model(0.3)),
    lambda: giqueue.factorial_oracle(gi_deterministic_model(0.3)),
])
def test_an_empty_row_range_gives_an_empty_block(make_oracle):
    oracle = make_oracle()
    rows, cols = np.arange(1, 1), np.arange(1, 5)
    for i, j in ((rows, rows), (rows[:, None], cols[None, :])):
        got = np.asarray(oracle.a(i, j))
        assert got.dtype == np.float64
        assert got.shape == np.broadcast_shapes(i.shape, j.shape)


def probed_row_sums(oracle, order):
    """math.fsum of |a_ij|, j != i, over the first 4 * order columns of rows
    1..order: a lower estimate of each off-diagonal row sum."""
    rows, cols = np.arange(1, order + 1), np.arange(1, 4 * order + 1)
    block = np.abs(linsys._block(oracle.a, rows[:, None], cols[None, :]))
    np.fill_diagonal(block, 0.0)
    return np.array([math.fsum(r) for r in block.tolist()])


def probed_sigma(oracle, order):
    """probed_row_sums divided by |a_ii|: a lower estimate of sigma_i."""
    rows = np.arange(1, order + 1)
    return (probed_row_sums(oracle, order)
            / np.abs(linsys._block(oracle.a, rows, rows)))


def reference_dominance_dict(oracle, order, sums=None):
    """dominance_report(oracle, order).to_dict() rebuilt from row sums over
    the diagonal entries: the given sums, or else the oracle's exact ones,
    with its closed-form side conditions.  An oracle with neither gets the
    unknown report: every number null and every condition false."""
    report = dominance_report(oracle, order=order).to_dict()
    rows = np.arange(1, order + 1)
    if sums is None and oracle.exact_row_sums is None:
        report.update(sigma=[None] * order, worst_row=1, max_sigma=None,
                      max_offdiag_row_sum=None, row_sums_bounded=False,
                      diag_sums_summable=False, col_sums_finite=False,
                      satisfied=False, marginal=False, tail_is_analytic=False,
                      tail_cutoff=None)
        return report
    exact, diag_ok, cols_ok = oracle.exact_row_sums(rows)
    sums = exact if sums is None else sums
    diag = np.abs(linsys._block(oracle.a, rows, rows))
    report.update(tail_cutoff=None, tail_is_analytic=True,
                  diag_sums_summable=diag_ok,
                  col_sums_finite=cols_ok and bool(np.isfinite(diag).all()))
    sigma = sums / diag
    worst = int(np.argmax(sigma)) + 1
    max_row = float(sums.max())
    report.update(
        sigma=[float(x) for x in sigma], worst_row=worst,
        max_sigma=float(sigma[worst - 1]), max_offdiag_row_sum=max_row,
        row_sums_bounded=math.isfinite(max_row),
        satisfied=(bool(np.all(sigma < 1.0)) and report["diag_sums_summable"]
                   and math.isfinite(max_row) and report["col_sums_finite"]))
    report["marginal"] = (report["satisfied"]
                          and report["analytic_region_ok"] is False)
    return report


@pytest.mark.parametrize("make_oracle,order,probe", [
    (lambda: mgqueue.moment_oracle(mg_model(0.75)), 12, False),
    (lambda: giqueue.factorial_oracle(gi_poisson_model(0.45)), 25, False),
    (lambda: giqueue.factorial_oracle(gi_deterministic_model(0.4)), 64, False),
    # Arrivals given by callables state no row sums.
    (lambda: giqueue._general_oracle(gi_erlang2_model(0.3)), 50, False),
    # At q = exp(-2.5) the first 256 columns already hold every entry that
    # can move a correctly rounded row sum.
    (lambda: giqueue.factorial_oracle(gi_deterministic_model(0.4)), 64, True),
])
def test_dominance_report_sums_rows_bit_for_bit(make_oracle, order, probe):
    oracle = make_oracle()
    sums = probed_row_sums(oracle, order) if probe else None
    assert (dominance_report(oracle, order=order).to_dict()
            == reference_dominance_dict(oracle, order, sums))


# ------------------------------------------------- exact row sums of the closed forms

EXACT = {
    "mg-transformed": lambda rho: mgqueue.moment_oracle(mg_model(rho)),
    "gi-poisson": lambda rho: giqueue.factorial_oracle(gi_poisson_model(rho)),
    # q = exp(-1/rho) runs from 0 (rho = 1e-3) to 0.349.
    "gi-deterministic": lambda rho: giqueue.factorial_oracle(
        gi_deterministic_model(rho)),
}
EXACT_RHO = (1e-3, 0.05, 0.25, 0.5, 0.75, 0.95)
ZETA_FORMS = ("gi-poisson", "mg-transformed")


def scipy_row_sums(kind, rho, rows):
    from scipy.special import psi, zeta

    i = rows.astype(float)
    if kind == "mg-transformed":
        return np.where(rows == 1, rho * (psi(2.0 + rho) - psi(2.0)),
                        rho ** (i / 2.0) * (zeta(i) - i ** -i))
    return np.where(rows == 1, rho * (zeta(2.0) - 1.0),
                    rho ** (i / 2.0 - 1.0) * (zeta(i) + rho * zeta(i + 1.0)
                                              - (1.0 + rho / i) * i ** -i))


@pytest.mark.parametrize("kind", ZETA_FORMS)
def test_exact_row_sums_match_scipy_zeta_and_psi(kind):
    rows = np.arange(1, 65)
    for rho in EXACT_RHO:
        sums, diag_summable, cols_finite = EXACT[kind](rho).exact_row_sums(rows)
        assert diag_summable is True and cols_finite is True
        np.testing.assert_allclose(sums, scipy_row_sums(kind, rho, rows),
                                   rtol=1e-13, atol=0.0,
                                   err_msg=f"{kind} at rho={rho}")


def mpmath_row_sums(bhat, rows):
    """sum_{j != i} bhat_j^(i-1) / (j (1 - bhat_j)^i), and
    sum_{j >= 2} bhat_j / (j (1 - bhat_j)) for row 1, at 40 digits on the
    given doubles bhat_j, rounded to doubles.  The terms fall with j, so a
    row stops once a term drops below 1e-36 of its sum."""
    import mpmath

    sums = []
    with mpmath.workdps(40):
        b = [mpmath.mpf(x) for x in bhat]
        for i in rows.tolist():
            total = mpmath.mpf(0)
            for j in range(1, len(b)):
                if j == i:
                    continue
                term = (b[j] / (j * (1 - b[j])) if i == 1
                        else b[j] ** (i - 1) / (j * (1 - b[j]) ** i))
                total += term
                if term < total * mpmath.mpf("1e-36"):
                    break
            sums.append(float(total))
    return np.array(sums)


@pytest.mark.parametrize("q,rows", [
    *(pytest.param(q, np.arange(1, 65), id=str(q))
      for q in (1e-9, 1e-4, 0.01, 0.1, 0.25, 0.4, 0.4966, 0.4998)),
    # (1 - q)^i leaves the normal range from row 1033, and q^(i-1) from
    # row 1014.
    pytest.param(0.4966, np.arange(1030, 1101), id="0.4966-rows-1030-1100"),
    # q^(i-1) leaves the normal range from row 590 and underflows to 0.0
    # from row 620, while (q / (1 - q))^(i-1) stays normal to row 837.
    pytest.param(0.3, np.arange(580, 701), id="0.3-rows-580-700"),
    # Past light traffic, assembled by override.
    *(pytest.param(q, np.arange(1, 65), id=str(q))
      for q in (0.5, 0.6, 0.75, 0.9, 0.95, 0.99)),
])
def test_deterministic_row_sums_match_an_mpmath_reference(q, rows):
    """Exact row sums of deterministic spacing -log(q) at mu = 1, against
    the same sums at 40 digits on the model's own doubles bhat_j, over at
    least 200 columns and enough that q^j falls below e^-100.

    Each entry carries at most (i/2 + 3) eps of relative rounding (1 - bhat_j
    and its i-th power, a pow, two divisions), and the sum one more rounding,
    so each row must agree to (i + 8) eps relative (the ratio form of deep
    rows carries at most (i + 2) eps); a sum in the subnormal range (rows
    from 36 at q = 1e-9) gets 16 units of 2^-1074 besides."""
    model = giqueue.GiModel(ArrivalDistribution.deterministic(-math.log(q)),
                            1.0)
    sums, diag_summable, cols_finite = giqueue.factorial_oracle(
        model, override=True).exact_row_sums(rows)
    assert diag_summable is False and cols_finite is (q < 0.5)
    want = mpmath_row_sums(
        model.bhats(max(200, math.ceil(-100.0 / math.log(q)))), rows)
    tol = (rows + 8) * np.finfo(float).eps * want + 16 * 2.0 ** -1074
    assert np.all(np.abs(sums - want) <= tol), np.abs(sums - want) / tol


@pytest.mark.parametrize("spacing", [2.335844085233836, 3.5368334206026204])
def test_a_row_head_that_does_not_settle_doubles(spacing, monkeypatch):
    """At these spacings (mu = 1) row 1's first head of columns does not
    settle: adding the geometric bound on the columns past it still moves
    its sum, so the head doubles once.  The sums of 64 rows still match the
    40-digit reference, as in the test above, and the report's sigma_i are
    those sums over |a_ii|."""
    calls = []
    magnitudes = giqueue._magnitudes

    def counted(bj, i, j):
        calls.append(len(j))
        return magnitudes(bj, i, j)

    monkeypatch.setattr(giqueue, "_magnitudes", counted)
    model = giqueue.GiModel(ArrivalDistribution.deterministic(spacing), 1.0)
    rows = np.arange(1, 65)
    sums = giqueue._spacing_row_sums(model, rows)[0]
    assert len(calls) == 2 and calls[1] == 2 * calls[0]
    q = model.bhat(1)
    want = mpmath_row_sums(
        model.bhats(max(200, math.ceil(-100.0 / math.log(q)))), rows)
    tol = (rows + 8) * np.finfo(float).eps * want + 16 * 2.0 ** -1074
    assert np.all(np.abs(sums - want) <= tol), np.abs(sums - want) / tol
    oracle = giqueue.factorial_oracle(model)
    report = dominance_report(oracle, 64)
    assert np.array_equal(report.sigma, sums / np.abs(oracle.a(rows, rows)))


def test_deterministic_rows_that_overflow_sum_to_nan():
    """Spacing 0.1 at mu = 1 (q = 0.9048): a(i, 1) grows like
    (q / (1 - q))^(i-1) and leaves double range from row 316.  Those rows
    are finite, but not representable, so their sums are NaN, not +inf."""
    model = giqueue.GiModel(ArrivalDistribution.deterministic(0.1), 1.0)
    sums, diag_summable, cols_finite = giqueue._spacing_row_sums(
        model, np.arange(1, 401))
    assert np.isfinite(sums[:315]).all() and np.isnan(sums[315:]).all()
    assert diag_summable is False and cols_finite is False


@pytest.mark.parametrize("spacing,message", [
    (1e-300, "bhat(mu) = 1.0: the deterministic rows do not fall"),
    (1e-10, "need a head of 388162388980 columns, more than 1048576 entries"),
], ids=["bhat-rounds-to-1", "head-past-the-cap"])
def test_a_head_too_long_to_hold_is_refused_before_it_is_built(spacing,
                                                               message):
    """bhat_1 rounds to 1 at spacing 1e-300, and is 1 - 1e-10 at 1e-10,
    whose head would need ~56 / -log2(bhat_1) columns per row."""
    import tracemalloc

    model = giqueue.GiModel(ArrivalDistribution.deterministic(spacing), 1.0)
    rows = np.arange(1, 65)
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRegimeError, match=re.escape(message)):
            giqueue._spacing_row_sums(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(min_value=0.05, max_value=0.65),
       mu=st.floats(min_value=0.5, max_value=2.0))
def test_exact_deterministic_reports_keep_the_probe_bits(rho, mu):
    """The benchmark's deterministic loads (q = exp(-1/rho) <= 0.22) at
    order 50: the first 200 columns reach far past every entry that can
    move a correctly rounded sum, so a probe of them reads the same bits."""
    oracle = giqueue.factorial_oracle(giqueue.GiModel(
        ArrivalDistribution.deterministic(1.0 / (rho * mu)), mu))
    exact = dominance_report(oracle, order=50)
    sums = probed_row_sums(oracle, 50)
    sigma = probed_sigma(oracle, 50)
    assert exact.tail_is_analytic
    np.testing.assert_array_equal(exact.sigma, sigma)
    assert exact.worst_row == int(np.argmax(sigma)) + 1
    assert exact.max_sigma == sigma.max()
    assert exact.max_offdiag_row_sum == sums.max()


def analytic_row_tail(kind, rho, rows, cutoff):
    """Upper bounds on sum_{j > cutoff} |a_ij| for the closed-form systems.

    M/G: rho^2 sum_{j>J} 1/(j(j+rho)) < rho^2/J for row 1 and
    sum_{j>J} (sqrt(rho)/j)^i < rho^{i/2} J^{1-i}/(i-1) for rows i >= 2.
    GI: rho sum_{j>J} 1/j^2 < rho/J for row 1 and
    rho^{i/2-1} sum_{j>J} (1 + rho/j) j^{-i}
    < (1 + rho/(J+1)) rho^{i/2-1} J^{1-i}/(i-1) for rows i >= 2.
    Deterministic GI, q = exp(-1/rho): the entries t_j = q^(j(i-1)) /
    (j (1 - q^j)^i) (q^j / (j (1 - q^j)) in row 1) fall by a factor below
    r = q^max(i-1, 1) per column, so sum_{j>J} t_j < t_J r / (1 - r).
    """
    i = rows.astype(float)
    if kind == "gi-deterministic":
        q = math.exp(-1.0 / rho)
        qj = q ** cutoff
        r = q ** np.maximum(i - 1.0, 1.0)
        last = np.where(rows == 1, qj / (1.0 - qj),
                        qj ** (i - 1.0) / (1.0 - qj) ** i) / cutoff
        return last * r / (1.0 - r)
    with np.errstate(divide="ignore"):  # row 1 takes the other branch
        if kind == "mg-transformed":
            return np.where(rows == 1, rho * rho / cutoff,
                            rho ** (i / 2.0) * (1.0 * cutoff) ** (1.0 - i)
                            / (i - 1.0))
        return np.where(rows == 1, rho / cutoff,
                        (1.0 + rho / (cutoff + 1)) * rho ** (i / 2.0 - 1.0)
                        * (1.0 * cutoff) ** (1.0 - i) / (i - 1.0))


@pytest.mark.parametrize("kind", sorted(EXACT))
@pytest.mark.parametrize("order", [4, 12, 32, 64])
def test_exact_sigma_lies_between_the_probe_bounds(kind, order):
    """The probe's head sum is a lower bound and head plus the analytic tail
    an upper one.  Where the tail is below an ulp of the head both bounds
    round to one float, and the probe's rounded entries and the closed form
    can land an ulp or two apart, so each bound carries 4 eps of slack."""
    rows = np.arange(1, order + 1)
    slack = 4.0 * np.finfo(float).eps
    for rho in EXACT_RHO:
        oracle = EXACT[kind](rho)
        exact = dominance_report(oracle, order=order).sigma
        probe = probed_sigma(oracle, order)
        tail = (analytic_row_tail(kind, rho, rows, 4 * order)
                / np.abs(oracle.a(rows, rows)))
        assert np.all(probe * (1.0 - slack) <= exact), (kind, rho)
        assert np.all(exact <= (probe + tail) * (1.0 + slack)), (kind, rho)


READ_ONLY_THE_DIAGONAL = {
    **EXACT,
    # States no row sums: its report is unknown, with every sigma null.
    "gi-callables": lambda rho: giqueue.factorial_oracle(gi_erlang2_model(rho)),
}


@pytest.mark.parametrize("kind", sorted(READ_ONLY_THE_DIAGONAL))
def test_an_exact_report_reads_only_the_diagonal(kind):
    oracle = READ_ONLY_THE_DIAGONAL[kind](0.3)
    shapes = []

    def a(i, j):
        shapes.append(np.broadcast(i, j).shape)
        np.testing.assert_array_equal(i, j)
        return oracle.a(i, j)

    report = dominance_report(dataclasses.replace(oracle, a=a), order=40)
    assert shapes == [(40,)]
    data = report.to_dict()
    assert data == dominance_report(oracle, order=40).to_dict()
    known = oracle.exact_row_sums is not None
    assert report.tail_is_analytic is known
    assert (None not in data["sigma"]) is known
    if not known:
        assert data["sigma"] == [None] * 40 and data["max_sigma"] is None


def test_an_exact_sigma_that_is_not_finite_is_refused():
    def oracle(diag, bad):
        return linsys.CoefficientOracle(
            a=lambda i, j: np.where(i == j, diag, 0.0), b=lambda i: 1.0,
            exact_row_sums=lambda i: (np.where(i == 3, bad, 0.5), True, True),
            name="bad-row")

    with pytest.raises(linsys.AssemblyError,
                       match="row 3 has no finite dominance ratio"):
        dominance_report(oracle(2.0, np.nan), order=5)
    # A row stated unbounded has sigma inf, whatever its diagonal, written
    # as null, and the report is not satisfied.
    for diag in (2.0, np.inf):
        report = dominance_report(oracle(diag, np.inf), order=5)
        assert report.worst_row == 3 and report.max_sigma == math.inf
        assert not report.satisfied and not report.certifies
        data = report.to_dict()
        assert data["sigma"] == [0.5 / diag] * 2 + [None] + [0.5 / diag] * 2
        assert data["max_sigma"] is None
        assert data["max_offdiag_row_sum"] is None
        assert data["row_sums_bounded"] is False
        json.dumps(data, allow_nan=False)


# ------------------------------------------ the general GI oracle's power

def test_gi_power_equals_pow_bit_for_bit_at_the_underflow_edge():
    exponents = np.arange(0, 401)
    k = exponents[1:].astype(float)
    # Bases whose power lands at 2^-1074, at the rounding edge 2^-1075, and
    # at the -1100 cut, with their neighbours on either side.
    edge = np.concatenate([2.0 ** (-1074.0 / k), 2.0 ** (-1075.0 / k),
                           2.0 ** (-1100.0 / k)])
    bases = np.concatenate([
        [0.0, -0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 0.5],
        edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)])
    b, e = bases[None, :], exponents[:, None]
    got = giqueue._power(b, e)
    want = b ** e
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("i,want", [(1050, "1.1895362e-6"),
                                    (1085, "7.3749100e-7"),
                                    (1086, "7.2748610e-7")])
def test_gi_raw_a_is_finite_and_accurate_where_its_powers_leave_range(
        i, want):
    """Spacing 0.7 at mu = 1 (bhat_1 = 0.4966): bhat_1^(i-1) is subnormal
    from row 1014 and (1 - bhat_1)^i from row 1033; the plain quotient read
    a(1050, 1) 1.1e-5 low, a(1085, 1) 0.0 and a(1086, 1) inf.  Within the
    (i + 8) eps of the row-sum reference, at 40 digits on the same bhat_1."""
    import mpmath

    model = giqueue.GiModel(ArrivalDistribution.deterministic(0.7), 1.0)
    b1 = model.bhat(1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = float(giqueue._raw_a(np.array([b1]), np.array([i]))[0])
    with mpmath.workdps(40):
        b = mpmath.mpf(b1)
        exact = float(b ** (i - 1) / (1 - b) ** i)
    assert abs(got - exact) <= (i + 8) * np.finfo(float).eps * exact
    assert exact == pytest.approx(float(want), rel=1e-7)
