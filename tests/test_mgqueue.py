"""Stage-length analytics for the gated M/G/infinity queue."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from gatedq import linsys, mgqueue
from gatedq.distributions import (
    DivergentMomentError,
    GammaTable,
    ServiceDistribution,
    min_moment,
    support_end,
)
from gatedq.errors import OutOfRegimeError, UnconvergedError
from gatedq.linsys import truncate, solve

LAM = 1.0
MU = 2.5


def model(lam=LAM, mu=MU):
    return mgqueue.MgModel(lam=lam, service=ServiceDistribution.exponential(mu))


def wrapped_exponential(mu=MU):
    return ServiceDistribution.from_callables(
        pdf=lambda y: mu * math.exp(-mu * y) if y >= 0 else 0.0,
        cdf=lambda y: -math.expm1(-mu * y) if y >= 0 else 0.0,
        name="wrapped-exp")


def erlang2(rate=10.0, nodes=None):
    """Erlang-2 law on y >= 0 as numpy expressions; nodes records cdf calls."""

    def cdf(y):
        if nodes is not None:
            nodes.append(y)
        return 1.0 - (1.0 + rate * y) * np.exp(-rate * y)

    return ServiceDistribution.from_callables(
        pdf=lambda y: rate * rate * y * np.exp(-rate * y), cdf=cdf,
        name="erlang2")


def hyperexponential(exact_sf):
    """Rates 5 and 5/3 with weight 1/2 each; 1 - cdf rounds to 0 near y = 21."""

    def sf(y):
        return 0.5 * np.exp(-5.0 * y) + 0.5 * np.exp(-5.0 * y / 3.0)

    return ServiceDistribution.from_callables(
        pdf=lambda y: 2.5 * np.exp(-5.0 * y) + 2.5 / 3.0 * np.exp(-5.0 * y / 3.0),
        cdf=lambda y: 1.0 - sf(y), name="hyperexp",
        sf=sf if exact_sf else None)


# ---------------------------------------------------------------- kernel ----

def test_kernel_density_frozen_value():
    # Independent evaluation of (lam x e^{-lam x Gbar(y)} + e^{-lam x}) g(y).
    x, y = 1.0, 0.5
    gbar = math.exp(-MU * y)
    expected = (LAM * x * math.exp(-LAM * x * gbar) + math.exp(-LAM * x)) \
        * MU * math.exp(-MU * y)
    got = mgqueue.kernel_density(model(), x, y)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.8013273562552686, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, 1.0, 5.0])
def test_kernel_rows_integrate_to_one(x):
    val, _ = integrate.quad(
        lambda y: mgqueue.kernel_density(model(), x, y), 0.0, 40.0,
        limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_kernel_rejects_negative_arguments():
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), -1.0, 0.5)
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), 1.0, -0.5)


# ------------------------------------------------- transformed assembly ----

def test_transformed_entries_match_hand_evaluation():
    """First two rows at rho = 0.4 against hand-computed values."""
    oracle = mgqueue.moment_oracle(model())  # rho = lam/mu = 0.4
    row1 = [oracle.a(1, j) for j in range(1, 6)]
    np.testing.assert_allclose(row1, [
        0.8857142857142857,       # (1 + rho - rho^2) / (1 + rho)
        0.03333333333333333,      # rho^2 / (2 (2 + rho))
        -0.01568627450980392,     # -rho^2 / (3 (3 + rho))
        0.00909090909090909,
        -0.005925925925925926,
    ], rtol=1e-14)
    assert oracle.b(1) == pytest.approx(0.16 / 1.4, rel=1e-14)
    row2 = [oracle.a(2, j) for j in range(1, 6)]
    np.testing.assert_allclose(row2, [
        -0.4,                     # -rho^{i/2} at i = 2
        2.6,                      # rho^{-1} + rho / 4
        -0.044444444444444446,    # -(sqrt(rho)/3)^2
        0.025,
        -0.016,
    ], rtol=1e-14)
    assert oracle.b(2) == pytest.approx(0.4, rel=1e-14)


def test_transformed_requires_exponential_service():
    bad = mgqueue.MgModel(lam=0.5, service=wrapped_exponential())
    with pytest.raises(ValueError):
        mgqueue.moment_oracle(bad, assembly="transformed")
    with pytest.raises(ValueError):
        mgqueue.moment_oracle(model(), assembly="bogus")


def test_transformed_rejects_heavy_traffic():
    with pytest.raises(OutOfRegimeError):
        mgqueue.moment_oracle(model(lam=3.0))
    with pytest.raises(OutOfRegimeError):
        mgqueue.solve_stage_moments(model(lam=2.5))


def test_model_validation():
    with pytest.raises(ValueError):
        mgqueue.MgModel(lam=0.0, service=ServiceDistribution.exponential(1.0))
    with pytest.raises(ValueError):
        mgqueue.solve_stage_moments(model(), order=3)


# ------------------------------------------------------------- solutions ----

def test_fixed_truncation_frozen_values():
    sol = mgqueue.solve_stage_moments(model(), order=10, n_max=10)
    assert sol.convergence.rungs == [5, 10]
    assert sol.n_used == 10
    # The half-order rung differs by ~2e-5, above the default tolerance, and
    # the flag must say so even though the values are accurate to ~1e-5.
    assert not sol.converged
    assert sol.s == pytest.approx(0.12350871362742502, rel=1e-12)
    assert sol.y[2] == pytest.approx(0.17383647853307438, rel=1e-12)
    assert sol.beta[2] == pytest.approx(0.34767295706614876, rel=1e-12)
    assert sol.beta1 == pytest.approx(0.4219070254892899, rel=1e-12)


def test_ladder_converges_and_refines_the_fixed_values():
    sol = mgqueue.solve_stage_moments(model(), order=10)
    assert sol.converged
    assert sol.n_used == 40
    assert sol.beta1 == pytest.approx(0.42189482680040025, rel=1e-12)
    assert mgqueue.mean_customers_per_stage(sol) == 1.0 + sol.s
    assert sol.to_dict()["EK"] == 1.0 + sol.s


def test_beta_keys_follow_truncation_order():
    sol = mgqueue.solve_stage_moments(model(), order=10, n_max=10)
    assert sorted(sol.beta) == list(range(2, 11))
    assert sorted(sol.y) == list(range(2, 11))
    # beta_i = i! y_i / lam^i ties the two dictionaries together.
    for i in range(2, 11):
        assert sol.beta[i] == pytest.approx(
            math.factorial(i) * sol.y[i] / LAM ** i, rel=1e-13)


def test_two_assemblies_agree():
    """The specialised exponential system and the generic-kernel system are
    different derivations of the same moments."""
    m = model(lam=0.25, mu=1.0)
    a = mgqueue.solve_stage_moments(m, order=16, assembly="transformed")
    b = mgqueue.solve_stage_moments(m, order=12, assembly="general")
    assert a.converged and b.converged
    for i in range(2, 9):
        assert a.beta[i] == pytest.approx(b.beta[i], rel=1e-12), i
    assert a.beta1 == pytest.approx(b.beta1, rel=1e-12)
    # Fixed shallow truncations of the two systems still agree, just with a
    # visible shared-tail gap instead of machine precision.
    fa = mgqueue.solve_stage_moments(m, order=16, n_max=16, assembly="transformed")
    fb = mgqueue.solve_stage_moments(m, order=12, n_max=12, assembly="general")
    assert fa.beta[2] == pytest.approx(fb.beta[2], rel=1e-7)


def test_general_assembly_accepts_user_laws():
    m = mgqueue.MgModel(lam=0.5, service=wrapped_exponential())
    ref = mgqueue.solve_stage_moments(model(lam=0.5), order=8, n_max=8,
                                      assembly="general")
    sol = mgqueue.solve_stage_moments(m, order=8, n_max=8)
    assert sol.n_used == 8
    assert sol.beta1 == pytest.approx(ref.beta1, rel=1e-9)
    for i in (2, 3, 4):
        assert sol.beta[i] == pytest.approx(ref.beta[i], rel=1e-9), i


def test_user_law_ladder_flags_are_honest():
    m = mgqueue.MgModel(lam=0.5, service=wrapped_exponential())
    sol = mgqueue.solve_stage_moments(m, order=8)
    assert sol.converged and sol.n_used == 16
    # No analytic tail bound exists for a generic kernel, so the dominance
    # probe cannot certify the result.
    assert sol.heuristic
    assert any("diagonal probe ended" in n for n in sol.dominance.notes)


def test_gamma_table_evaluates_each_tail_node_once():
    nodes = []
    table = GammaTable(erlang2(nodes=nodes))
    oracle = mgqueue.moment_oracle(
        mgqueue.MgModel(lam=0.25, service=table.dist), table=table)
    linsys.dominance_report(oracle, order=8)
    assert len(table._cache) > 100
    assert len(nodes) == len(set(nodes)) == len(table._tails)


def test_tail_memo_leaves_the_general_solve_unchanged(monkeypatch):
    m = mgqueue.MgModel(lam=0.25, service=erlang2())
    sol = mgqueue.solve_stage_moments(m, order=4)

    class Uncached(GammaTable):
        # Entries are still cached; each one calls the cdf at all its nodes.
        def gamma(self, i, k):
            if (i, k) not in self._cache:
                self._cache[(i, k)] = min_moment(self.dist, i, k)
            return self._cache[(i, k)]

    monkeypatch.setattr(mgqueue, "GammaTable", Uncached)
    ref = mgqueue.solve_stage_moments(m, order=4)
    assert sol.beta == ref.beta
    assert sol.beta1 == ref.beta1
    assert np.array_equal(sol.dominance.sigma, ref.dominance.sigma)


def test_exact_sf_lets_a_hyperexponential_law_solve():
    with pytest.raises(DivergentMomentError):
        mgqueue.solve_stage_moments(
            mgqueue.MgModel(lam=0.5, service=hyperexponential(False)), order=4)
    m = mgqueue.MgModel(lam=0.5, service=hyperexponential(True))
    sol = mgqueue.solve_stage_moments(m, order=4)
    assert sol.converged
    # The grid mean has an O(h^2) error; extrapolate from two grids.
    means = [integrate.trapezoid(fp.y * fp.f, fp.y) for fp in (
        mgqueue.fixed_point_density(m, n_points=n) for n in (1024, 2048))]
    assert sol.beta1 == pytest.approx((4.0 * means[1] - means[0]) / 3.0,
                                      rel=1e-6)


def test_light_traffic_limit_of_mean_stage_length():
    sol = mgqueue.solve_stage_moments(model(lam=1e-6), order=10)
    assert abs(sol.beta1 - 1.0 / MU) < 1e-5
    # And the gap closes monotonically along a decreasing-lambda sweep.
    gaps = []
    for lam in (0.1, 0.01, 0.001):
        s = mgqueue.solve_stage_moments(model(lam=lam), order=10)
        gaps.append(abs(s.beta1 - 1.0 / MU))
    assert gaps[0] > gaps[1] > gaps[2]


def test_heuristic_flag_tracks_dominance():
    cool = mgqueue.solve_stage_moments(model(), order=10)
    assert not cool.heuristic
    assert not cool.dominance.marginal
    # At rho = 0.9 every probed row still passes, so the result is not
    # heuristic, but the parameters sit outside the certified region and the
    # report must say so.
    hot = mgqueue.solve_stage_moments(model(lam=0.9 * MU), order=10)
    assert not hot.heuristic
    assert hot.dominance.satisfied
    assert hot.dominance.marginal


def test_truncation_cauchy_gap_is_small_in_light_traffic():
    oracle = mgqueue.moment_oracle(model())
    x16 = solve(truncate(oracle, 16)).x
    x32 = solve(truncate(oracle, 32)).x
    assert np.abs(x32[:16] - x16).max() < 1e-8


# --------------------------------------------------------------- density ----

def test_stationary_density_frozen_value():
    m = model(lam=0.5)
    sol = mgqueue.solve_stage_moments(m, order=12)
    assert mgqueue.stationary_density(sol, m, 0.3) == pytest.approx(
        1.1812661348079554, rel=1e-12)


def test_stationary_density_normalizes_and_stays_nonnegative():
    m = model()
    sol = mgqueue.solve_stage_moments(m, order=10)
    mass, _ = integrate.quad(
        lambda t: mgqueue.stationary_density(sol, m, t), 0.0, 14.0, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    grid = np.linspace(0.0, 10.0, 1001)
    vals = np.array([mgqueue.stationary_density(sol, m, t) for t in grid])
    assert vals.min() >= -1e-10


def test_stationary_density_domain_and_convergence_guards():
    m = model()
    sol = mgqueue.solve_stage_moments(m, order=10)
    with pytest.raises(ValueError):
        mgqueue.stationary_density(sol, m, -0.1)
    broken = dataclasses.replace(sol, converged=False)
    with pytest.raises(UnconvergedError):
        mgqueue.stationary_density(broken, m, 0.5)


def reference_density(sol, m, t):
    """The per-node series evaluation, on 0-d arrays, kept as a reference."""
    t = np.asarray(t, dtype=float)
    g = np.asarray(m.service.pdf(t), dtype=float)
    gbar = np.asarray(m.service.sf(t), dtype=float)
    total = g.copy()
    comp = np.zeros_like(total)
    for k in mgqueue._series_cutoff(sol.y):
        term = (-1.0) ** k * sol.y[k] * g * (1.0 - k * gbar ** (k - 1))
        delta = term - comp
        fresh = total + delta
        comp = (fresh - total) - delta
        total = fresh
    return float(total)


@pytest.mark.parametrize("m,order", [(model(), 10),
                                     (mgqueue.MgModel(0.4, erlang2()), 4)],
                         ids=["exponential", "erlang2"])
def test_density_series_matches_the_per_node_reference(m, order):
    sol = mgqueue.solve_stage_moments(m, order=order)
    grid = np.linspace(0.0, 3.0, 401)
    scalar = np.array([mgqueue.stationary_density(sol, m, t) for t in grid])
    ref = np.array([reference_density(sol, m, t) for t in grid])
    np.testing.assert_allclose(scalar, ref, rtol=1e-14, atol=0.0)
    assert np.array_equal(mgqueue.stationary_density(sol, m, grid), scalar)


def test_unbounded_tail_raises_a_value_error():
    stuck = mgqueue.MgModel(lam=1.0, service=ServiceDistribution.from_callables(
        pdf=lambda y: 0.0, cdf=lambda y: 0.5, name="stuck"))
    sol = mgqueue.solve_stage_moments(model(), order=10)
    with pytest.raises(DivergentMomentError):
        mgqueue.stage_count_pmf(sol, stuck, 1)
    with pytest.raises(ValueError):
        mgqueue.fixed_point_density(stuck)


# ------------------------------------------------------------ stage pmf ----

def test_stage_count_pmf_is_a_distribution():
    m = model()
    sol = mgqueue.solve_stage_moments(m, order=10)
    pmf = [mgqueue.stage_count_pmf(sol, m, k) for k in range(1, 41)]
    assert all(p >= 0.0 for p in pmf)
    assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-6)
    mean = math.fsum(k * p for k, p in enumerate(pmf, start=1))
    assert mean == pytest.approx(1.0 + sol.s, abs=1e-6)
    with pytest.raises(ValueError):
        mgqueue.stage_count_pmf(sol, m, 0)
    broken = dataclasses.replace(sol, converged=False)
    with pytest.raises(UnconvergedError):
        mgqueue.stage_count_pmf(broken, m, 1)


def test_stage_count_pmf_stops_at_the_end_of_a_bounded_support():
    """A uniform(0, 0.5) density jumps to 0 at 0.5, inside [0, y_max = 1].

    Integrating across the jump gave P(K=2) = 0.0057433; the frozen values
    are the stage-to-stage kernel's fixed point (quadrature on panels that
    end at 0.5), which the converged series matches to 1e-16.
    """
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0) & (y <= 0.5), 2.0, 0.0)

    def cdf(y):
        return np.clip(np.asarray(y, dtype=float) / 0.5, 0.0, 1.0)

    law = ServiceDistribution.from_callables(pdf, cdf, name="uniform(0.5)")
    assert support_end(law, 1.0) == 0.5
    assert support_end(ServiceDistribution.exponential(MU), 8.0) == 8.0
    m = mgqueue.MgModel(lam=0.4, service=law)
    sol = mgqueue.solve_stage_moments(m, order=4)
    assert abs(mgqueue.stage_count_pmf(sol, m, 2)
               - 0.005759764636017911) < 1e-12
    assert abs(mgqueue.stage_count_pmf(sol, m, 3)
               - 0.0002852489813774091) < 1e-12


# ------------------------------------------------------------ fixed point ----

def test_fixed_point_grid_density_agrees_with_the_series():
    m = model()
    sol = mgqueue.solve_stage_moments(m, order=10)
    fp = mgqueue.fixed_point_density(m, n_points=1024)
    assert fp.converged
    assert fp.iterations < 100
    sub = fp.y[:: 16]
    series = np.array([mgqueue.stationary_density(sol, m, t) for t in sub])
    assert np.abs(series - fp.interpolate(sub)).max() < 1e-3


def test_fixed_point_interpolation_hits_the_nodes():
    fp = mgqueue.fixed_point_density(model(), n_points=256)
    np.testing.assert_allclose(fp.interpolate(fp.y[3:7]), fp.f[3:7], rtol=1e-12)


def test_fixed_point_rejects_short_grids():
    with pytest.raises(ValueError):
        mgqueue.fixed_point_density(model(), y_max=1.0)
