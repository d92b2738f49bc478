"""Customers-per-stage analytics for the synchronized gated GI/M/infinity queue."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gatedq import giqueue, linsys
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
    # C(1100, k) leaves double range: no rounding bound, so refused.
    with pytest.raises(ValueError, match="simulation"):
        giqueue.transition_probability(m, 1100, 1)


TRANSITION_LAWS = [ArrivalDistribution.poisson(0.5),
                   ArrivalDistribution.deterministic(1.5)]


@pytest.mark.parametrize("arrivals", TRANSITION_LAWS)
def test_rows_whose_terms_lost_their_precision_are_refused(arrivals):
    # At i = 43 the row mass used to come out 0.99988 (Poisson) and P went
    # negative further down the row (deterministic).
    m = giqueue.GiModel(arrivals, 1.0)
    with pytest.raises(ValueError, match="simulation"):
        giqueue.transition_row_mass(m, 43)
    with pytest.raises(ValueError, match="simulation"):
        giqueue.transition_probability(m, 43, 1)


@pytest.mark.parametrize("arrivals", TRANSITION_LAWS)
def test_accepted_transitions_lie_within_their_rounding_bound(arrivals):
    """Rows 1-20 are accepted, and each accepted P_ij, i, j <= 30, is within
    (i + j + 2) eps sum |terms| of the exact alternating sum on the same
    float bhat_k."""
    m = giqueue.GiModel(arrivals, 1.0)
    eps = np.finfo(float).eps
    accepted = 0
    for i in range(1, 31):
        bhat = [m.bhat(k) for k in range(1, i + 1)]
        exact_bhat = [Fraction(b) for b in bhat]
        for j in range(1, 31):
            try:
                got = giqueue.transition_probability(m, i, j)
            except ValueError:
                assert i > 20, (i, j)
                continue
            accepted += 1
            terms = [math.comb(i, k) * b ** (j - 1) * (b - 1.0)
                     for k, b in enumerate(bhat, start=1)]
            bound = (i + j + 2) * eps * math.fsum(map(abs, terms))
            exact = sum(math.comb(i, k) * (-1) ** k * b ** (j - 1) * (b - 1)
                        for k, b in enumerate(exact_bhat, start=1))
            assert abs(Fraction(got) - exact) <= bound, (i, j)
    assert accepted > 800


@pytest.mark.parametrize("arrivals", TRANSITION_LAWS)
def test_row_mass_tails_lie_within_their_rounding_bound(arrivals):
    """The geometric tail beyond j = head, -sum_k C(i,k)(-1)^k bhat_k^head,
    is within (i + head + 1) eps sum |terms| of its exact value on the same
    float bhat_k; adding the head's P_ij rounds once more."""
    m = giqueue.GiModel(arrivals, 1.0)
    eps = np.finfo(float).eps
    for i in range(1, 21):
        bhat = [m.bhat(k) for k in range(1, i + 1)]
        for head in (0, 1, 5, 20):
            got = giqueue.transition_row_mass(m, i, head)
            probs = [giqueue.transition_probability(m, i, j)
                     for j in range(1, head + 1)]
            terms = [math.comb(i, k) * b ** head
                     for k, b in enumerate(bhat, start=1)]
            bound = ((i + head + 1) * eps * math.fsum(terms)
                     + eps * (abs(math.fsum(probs)) + abs(got)))
            exact = sum(map(Fraction, probs)) - sum(
                math.comb(i, k) * (-1) ** k * Fraction(b) ** head
                for k, b in enumerate(bhat, start=1))
            assert abs(Fraction(got) - exact) <= bound, (i, head)


def test_a_bhat_that_rounds_to_one_keeps_unit_row_mass():
    m = giqueue.GiModel(ArrivalDistribution.deterministic(1e-300), 1.0)
    assert m.bhat(1) == 1.0
    assert giqueue.transition_row_mass(m, 1) == 1.0


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
    # Deterministic spacing in light traffic has exact row sums, with
    # finite column sums but inverse diagonals that are not summable.
    sums, diag_summable, cols_finite = oracle.exact_row_sums(np.arange(1, 5))
    assert sums.shape == (4,) and np.all(sums > 0.0)
    assert diag_summable is False and cols_finite is True
    # A spacing past light traffic, forced through override, states exact
    # sums too, and column 1's sum diverges there (bhat_1 >= 1/2).
    heavy = giqueue.factorial_oracle(giqueue.GiModel(
        ArrivalDistribution.deterministic(0.5), 1.0), override=True)
    sums, diag_summable, cols_finite = heavy.exact_row_sums(np.arange(1, 5))
    assert np.all(np.isfinite(sums)) and np.all(sums > 0.0)
    assert diag_summable is False and cols_finite is False
    # The same law given by callables states no row sums.
    law = ArrivalDistribution.deterministic(1.0)
    as_callables = ArrivalDistribution.from_callables(
        law.sample, law.laplace, 1.0, 1.0)
    oracle = giqueue.factorial_oracle(giqueue.GiModel(as_callables, 1.0))
    assert oracle.name == "gi-general" and oracle.exact_row_sums is None


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
    # The report is exact, and not satisfied: the inverse diagonals of the
    # general rows are not summable.
    assert sol.dominance.tail_is_analytic and sol.heuristic


@pytest.mark.parametrize("rho", [0.1, 0.2, 0.3])
def test_assembly_follows_what_the_arrival_law_carries(rho):
    """Poisson arrivals given as callables carry no rate, so they get the
    general assembly, and its solution agrees with the closed-form one."""
    as_callables = giqueue.GiModel(ArrivalDistribution.from_callables(
        lambda rng, n: rng.exponential(1.0 / rho, n),
        lambda s: rho / (rho + s), 1.0 / rho, 2.0 / rho ** 2), 1.0)
    named = poisson_model(rho)
    assert giqueue.factorial_oracle(as_callables).name == "gi-general"
    assert giqueue.factorial_oracle(named).name.startswith("gi-poisson")
    general = giqueue.solve_factorial_moments(as_callables)
    closed = giqueue.solve_factorial_moments(named)
    assert general.converged and closed.converged
    for m in range(1, 9):
        assert general.x[m] == pytest.approx(closed.x[m], rel=0, abs=1e-12), m
    for i in range(1, 11):
        assert giqueue.stationary_pmf(general, as_callables, i) == \
            pytest.approx(giqueue.stationary_pmf(closed, named, i),
                          rel=0, abs=1e-12), i


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


@seed(4127)
@settings(max_examples=25, deadline=None)
@given(rho=st.floats(0.01, 0.7), mu=st.floats(0.2, 5.0))
def test_pgf_boundary_identities_across_light_traffic(rho, mu):
    # pgf(1) = sum_k (-1)^(k-1) x_k, which misses 1 by the solution's defect.
    m = poisson_model(rho, mu)
    sol = giqueue.solve_factorial_moments(m)
    assert giqueue.pgf(sol, m, 0.0) == 0.0
    assert abs(giqueue.pgf(sol, m, 1.0) - 1.0) <= sol.defect + 1e-12


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
    for bad in (0, 2.5, math.nan, 2.0):
        with pytest.raises(ValueError):
            giqueue.stationary_pmf(sol, m, bad)
    assert (giqueue.stationary_pmf(sol, m, np.int64(2))
            == giqueue.stationary_pmf(sol, m, 2))


def test_mixture_weights_are_computed_once_per_solution(monkeypatch):
    prop = giqueue.GiMomentSolution.__dict__["weights"]
    calls = []
    monkeypatch.setattr(prop, "func",
                        lambda sol, f=prop.func: calls.append(sol) or f(sol))
    m = poisson_model(0.5)
    sol = giqueue.solve_factorial_moments(m)
    for i in range(1, 6):
        giqueue.stationary_pmf(sol, m, i)
    giqueue.pgf(sol, m, 0.5)
    giqueue.pmf_total_mass(sol, m)
    assert len(calls) == 1
    assert sol.weights == tuple((-1.0) ** (k - 1) * sol.x[k]
                                for k in range(1, len(sol.x) + 1))


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


# ---------------------------------------------------- dominance on demand ----

def deterministic_model(spacing=2.0, mu=1.0):
    return giqueue.GiModel(ArrivalDistribution.deterministic(spacing), mu)


def test_a_solve_does_not_probe_and_a_read_probes_once(monkeypatch):
    probes = []
    report = linsys.dominance_report

    def counted(oracle, order):
        probes.append(order)
        return report(oracle, order)

    monkeypatch.setattr(linsys, "dominance_report", counted)
    sol = giqueue.solve_factorial_moments(poisson_model(0.3))
    assert probes == []
    first = sol.dominance
    assert sol.dominance is first and probes == [sol.n_used]
    sol.to_dict()
    copy = dataclasses.replace(sol, converged=False)
    assert copy.dominance is not first
    assert probes == [sol.n_used, sol.n_used]


@pytest.mark.parametrize("make_model", [lambda: poisson_model(0.3),
                                        deterministic_model],
                         ids=["poisson", "deterministic"])
def test_to_dict_on_demand_equals_an_eager_probe(make_model):
    fresh = make_model()
    eager = giqueue.solve_factorial_moments(fresh)
    report = linsys.dominance_report(giqueue.factorial_oracle(fresh),
                                     order=min(eager.n_used, 64))
    want = {**eager.to_dict(), "dominance": report.to_dict()}

    # The same solve on another model, read only after its pmf and pgf.
    m = make_model()
    sol = giqueue.solve_factorial_moments(m)
    [giqueue.stationary_pmf(sol, m, i) for i in range(1, 20)]
    giqueue.pgf(sol, m, 0.5)
    got = sol.to_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# ------------------------------------------------------------- zeta region ----

def test_zeta_matches_scipy_and_is_correctly_rounded():
    import mpmath
    from scipy.special import zeta

    # dominance --order 400 reads zeta(401) for the last Poisson row.
    for s in range(2, 402):
        assert abs(giqueue._zeta(s) - zeta(s)) <= 1e-15 * zeta(s), s
        with mpmath.workdps(40):
            assert giqueue._zeta(s) == float(mpmath.zeta(s)), s


def _region_with_scipy_zeta(rho):
    """The closed-form dominance region as written with scipy's zeta."""
    from scipy.special import zeta

    if not rho < 6.0 / math.pi ** 2:
        return False
    return max(i * rho ** (i - 1) * (zeta(i) + rho * zeta(i + 1))
               for i in range(2, 65)) < 1.0


def test_analytic_region_is_unchanged_on_a_dense_grid():
    lo, hi = 0.2, 0.3  # bisect the crossover, near rho = 0.256
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _region_with_scipy_zeta(mid) else (lo, mid)
    edge = 6.0 / math.pi ** 2
    grid = np.concatenate([
        np.linspace(0.001, 0.99, 1500),
        [lo, hi, np.nextafter(lo, 0.0), np.nextafter(hi, 1.0),
         edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)]])
    for rho in grid:
        rho = float(rho)
        region = giqueue.factorial_oracle(poisson_model(rho)).analytic_region
        assert region() == _region_with_scipy_zeta(rho), rho
    assert _region_with_scipy_zeta(lo) and not _region_with_scipy_zeta(hi)


# ---------------------------------------------------------- bhat memo ----

def test_each_laplace_point_runs_once_across_every_reader():
    calls = []

    def laplace(s):
        calls.append(s)
        return (1.0 / (1.0 + s)) ** 2

    model = giqueue.GiModel(ArrivalDistribution.from_callables(
        sampler=lambda rng, size: rng.gamma(2.0, 1.0, size),
        laplace=laplace, mean=2.0, second_moment=6.0,
        name="erlang2"), 2.0)
    assert model.bhat(3) == (1.0 / 7.0) ** 2
    assert model.bhats(5)[1:6] == [model.bhat(k) for k in range(1, 6)]
    block = giqueue.factorial_oracle(model).a(np.arange(1, 9)[:, None],
                                              np.arange(1, 13))
    assert np.isfinite(block).all()
    giqueue.transition_probability(model, 6, 2)
    giqueue.transition_row_mass(model, 7, head=3)
    sol = giqueue.solve_factorial_moments(model, order=8)
    assert sol.converged
    giqueue.stationary_pmf(sol, model, 2)
    giqueue.pgf(sol, model, 0.5)
    n = len(model.bhats(0)) - 1
    assert n >= max(sol.x)
    assert calls == [k * 2.0 for k in range(1, n + 1)]
    with pytest.raises(ValueError):
        model.bhat(-1)
