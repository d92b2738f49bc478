"""Tests of the benchmark's reference computations (they never import gatedq).

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref

LAWS = [ref.exponential_law(0.7), ref.exponential_law(2.5),
        ref.erlang2_law(10.0), ref.uniform_law(0.5)]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("lam", [0.1, 0.6, 1.5])
def test_kernel_rows_integrate_to_one(law, lam):
    y, w = ref.gauss_panels(0.0, law[2], 16)
    x = np.array([0.0, 0.05, 0.3, 1.0, 4.0])
    rows = ref.kernel(lam, law, x, y) @ w
    assert np.allclose(rows, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", [0.1, 0.4, 0.65])
def test_poisson_chain_reproduces_conditional_mean(rho):
    # E[K_next | K = i] = 1 + rho E[max of i Exp(1)] = 1 + rho H_i.
    p = ref.gi_poisson_chain(rho, 1.0)
    states = np.arange(1, p.shape[1] + 1)
    for i in range(1, 21):
        h = math.fsum(1.0 / j for j in range(1, i + 1))
        assert p[i - 1] @ states == pytest.approx(1.0 + rho * h, abs=1e-10)


@pytest.mark.parametrize("c, mu", [(1.6, 1.0), (3.0, 0.5)])
def test_deterministic_chain_rows_are_stochastic(c, mu):
    p = ref.gi_deterministic_chain(c, mu)
    assert np.all(p >= 0)
    assert np.allclose(p[:20].sum(axis=1), 1.0, rtol=0, atol=1e-13)


def test_stationary_law_is_invariant():
    p = ref.gi_poisson_chain(0.5, 1.0)
    law = ref.stationary_law(p)
    assert law.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(law @ p, law, rtol=0, atol=1e-13)


def test_fixed_point_mean_matches_light_traffic_limit():
    # As lam -> 0 every stage serves one customer: beta_1 -> E[service].
    fp = ref.KernelFixedPoint(1e-6, ref.exponential_law(2.0))
    assert fp.beta1 == pytest.approx(0.5, rel=1e-5)
    assert fp.mean_k == pytest.approx(1.0, abs=1e-5)
    assert sum(fp.pmf(k) for k in range(1, 30)) == pytest.approx(1.0, abs=1e-12)
