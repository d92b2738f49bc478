"""Customers-per-stage analytics for the synchronized gated GI/M/infinity queue."""

import dataclasses
import math

import numpy as np
import pytest

from gatedq import giqueue
from gatedq.distributions import ArrivalDistribution
from gatedq.errors import OutOfRegimeError, UnconvergedError
from gatedq.linsys import truncate

RHO = 0.85


def poisson_model(rho=RHO, mu=1.0):
    return giqueue.GiModel(ArrivalDistribution.poisson(rho * mu), mu)


# ------------------------------------------------------------ transitions ----

def test_first_row_is_geometric():
    m = poisson_model()
    bhat = m.bhat(1)
    for j in range(1, 7):
        expected = (1.0 - bhat) * bhat ** (j - 1)
        assert giqueue.transition_probability(m, 1, j) == pytest.approx(
            expected, rel=1e-13), j
    # Poisson arrivals make P_11 = 1 / (1 + rho).
    assert giqueue.transition_probability(m, 1, 1) == pytest.approx(
        1.0 / (1.0 + RHO), rel=1e-13)


def test_transition_probability_frozen_and_monte_carlo():
    """P_32 against an independent alternating-binomial evaluation and a
    pre-computed Monte Carlo estimate (10^6 gate cycles, mean +- se)."""
    m = poisson_model()
    p32 = giqueue.transition_probability(m, 3, 2)
    direct = math.fsum(
        math.comb(3, k) * (-1.0) ** k * m.bhat(k) ** (2 - 1) * (m.bhat(k) - 1.0)
        for k in range(1, 4))
    assert p32 == pytest.approx(direct, rel=1e-13)
    assert p32 == pytest.approx(0.2892196469376197, rel=1e-13)
    mc_mean, mc_se = 0.288952, 0.000453
    assert abs(p32 - mc_mean) <= 3.0 * mc_se


@pytest.mark.parametrize("i", [1, 5, 20])
def test_transition_rows_have_unit_mass(i):
    mass = giqueue.transition_row_mass(poisson_model(), i)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_transition_row_refusals():
    m = poisson_model()
    with pytest.raises(ValueError, match="simulation"):
        giqueue.transition_probability(m, 61, 1)
    with pytest.raises(ValueError):
        giqueue.transition_probability(m, 0, 1)
    with pytest.raises(ValueError):
        giqueue.transition_probability(m, 1, 0)
    with pytest.raises(ValueError):
        giqueue.transition_row_mass(m, 61)


def test_deterministic_transform_value():
    m = giqueue.GiModel(ArrivalDistribution.deterministic(1.0), 1.0)
    assert m.bhat(3) == pytest.approx(math.exp(-3.0), rel=1e-15)


# ---------------------------------------------------------------- assembly ----

def test_poisson_system_entries_match_hand_evaluation():
    oracle = giqueue.factorial_oracle(poisson_model())
    assert oracle.a(1, 1) == pytest.approx(-0.15, rel=1e-13)
    assert oracle.a(1, 2) == pytest.approx(-0.2125, rel=1e-13)
    assert oracle.a(2, 1) == pytest.approx(1.85, rel=1e-13)
    assert oracle.a(2, 2) == pytest.approx(-0.9444852941176471, rel=1e-13)
    assert oracle.b(1) == -1.0
    assert oracle.b(2) == 0.0


def test_general_system_entry_for_deterministic_arrivals():
    m = giqueue.GiModel(ArrivalDistribution.deterministic(1.0), 1.0)
    oracle = giqueue.factorial_oracle(m)
    assert oracle.a(1, 1) == pytest.approx(-0.41802329313067366, rel=1e-13)
    # No closed-form tail bound exists for a generic transform.
    assert oracle.tail_row_bound is None


def test_light_traffic_boundary_cases():
    cases = [
        (ArrivalDistribution.deterministic(0.5), False, -0.10653065971263342),
        (ArrivalDistribution.deterministic(math.log(2.0)), False, 0.0),
        (ArrivalDistribution.deterministic(1.0), True, 0.13212055882855767),
        (ArrivalDistribution.poisson(1.0), False, 0.0),
    ]
    for arrivals, ok, margin in cases:
        lt = giqueue.light_traffic_ok(giqueue.GiModel(arrivals, 1.0))
        assert lt.ok is ok, arrivals.name
        assert lt.margin == pytest.approx(margin, abs=1e-13)


def test_out_of_regime_refusal_and_override():
    heavy = giqueue.GiModel(ArrivalDistribution.deterministic(0.5), 1.0)
    with pytest.raises(OutOfRegimeError):
        giqueue.factorial_oracle(heavy)
    with pytest.raises(OutOfRegimeError):
        giqueue.solve_factorial_moments(heavy)
    # The override still assembles finite coefficients.
    oracle = giqueue.factorial_oracle(heavy, override=True)
    system = truncate(oracle, 8)
    assert np.all(np.isfinite(system.a))


def test_model_validation():
    with pytest.raises(ValueError):
        giqueue.GiModel(ArrivalDistribution.poisson(1.0), 0.0)
    with pytest.raises(ValueError):
        giqueue.GiModel(ArrivalDistribution.deterministic(0.0), 1.0)
    with pytest.raises(ValueError):
        giqueue.solve_factorial_moments(poisson_model(0.5), order=3)


# ---------------------------------------------------------------- solutions ----

def test_light_traffic_solution_is_clean():
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    assert sol.converged
    assert sol.n_used == 50
    assert sol.notes == []
    assert sol.defect < 1e-12
    assert all(v > 0.0 for v in sol.x.values())
    assert sol.x[1] == pytest.approx(1.6349755115460423, rel=1e-12)
    assert sol.to_dict()["EK"] == sol.x[1]


def test_mean_customers_tends_to_one_in_very_light_traffic():
    sol = giqueue.solve_factorial_moments(poisson_model(0.01))
    assert sol.x[1] == pytest.approx(1.0, abs=0.02)
    assert sol.x[1] > 1.0


def test_deterministic_arrivals_frozen_solution():
    m = giqueue.GiModel(ArrivalDistribution.deterministic(1.0), 1.0)
    sol = giqueue.solve_factorial_moments(m)
    assert sol.converged
    assert sol.x[1] == pytest.approx(1.9196112256133855, rel=1e-12)
    assert abs(giqueue.pmf_total_mass(sol, m) - 1.0) < 1e-9
    assert not sol.dominance.tail_is_analytic


# ------------------------------------------------------------- pmf and pgf ----

def test_pmf_is_a_distribution_and_matches_the_pgf():
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    assert giqueue.pmf_total_mass(sol, m) == pytest.approx(1.0, abs=1e-12)
    for z in (0.3, 0.7, 0.95):
        direct = math.fsum(
            giqueue.stationary_pmf(sol, m, i) * z ** i for i in range(1, 500))
        assert giqueue.pgf(sol, m, z) == pytest.approx(direct, abs=1e-12), z
    mean = math.fsum(
        i * giqueue.stationary_pmf(sol, m, i) for i in range(1, 500))
    assert mean == pytest.approx(sol.x[1], abs=1e-8)


def test_pgf_boundary_identities():
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    assert giqueue.pgf(sol, m, 0.0) == 0.0
    assert abs(giqueue.pgf(sol, m, 1.0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        giqueue.pgf(sol, m, 1.2)
    with pytest.raises(ValueError):
        giqueue.pgf(sol, m, -0.1)


def test_pmf_stays_nonnegative_near_the_regime_edge():
    m = poisson_model(0.85)
    sol = giqueue.solve_factorial_moments(m, order=25, n_max=100, tol=1e-3)
    assert sol.converged
    pmf = [giqueue.stationary_pmf(sol, m, i) for i in range(1, 201)]
    assert min(pmf) >= 0.0
    assert abs(giqueue.pgf(sol, m, 1.0) - 1.0) < 1e-6


def test_pmf_argument_validation():
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    with pytest.raises(ValueError):
        giqueue.stationary_pmf(sol, m, 0)


def test_unconverged_solutions_are_refused():
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    broken = dataclasses.replace(sol, converged=False)
    with pytest.raises(UnconvergedError):
        giqueue.stationary_pmf(broken, m, 1)
    with pytest.raises(UnconvergedError):
        giqueue.pgf(broken, m, 0.5)
    with pytest.raises(UnconvergedError):
        giqueue.pmf_total_mass(broken, m)


def test_ladder_exhaustion_is_reported_not_raised():
    sol = giqueue.solve_factorial_moments(
        poisson_model(0.9), order=4, n_max=8, tol=1e-13)
    assert not sol.converged
    assert sol.convergence.rungs == [4, 8]
