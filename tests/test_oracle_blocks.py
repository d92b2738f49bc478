"""Array-native coefficient oracles against per-entry reference formulas.

The reference functions below evaluate one coefficient at a time with
Python floats, exactly as the scalar oracles did before the oracles took
index arrays.  Closed forms may differ from them in the last digits, because
numpy's vectorized pow is not libm's (up to 2e-14 relative at index 256), so
they are compared at rtol = 1e-13 with the same infinite entries; the
quadrature-backed oracle does the same arithmetic and must match exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedq import giqueue, mgqueue
from gatedq.distributions import (
    ArrivalDistribution,
    GammaTable,
    ServiceDistribution,
)
from gatedq.linsys import truncate

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
