"""Truncated-system machinery: assembly, solving, dominance, the ladder."""

import math

import numpy as np
import pytest

from gatedq import linsys, mgqueue
from gatedq.distributions import ServiceDistribution
from gatedq.linsys import (
    AssemblyError,
    CoefficientOracle,
    SingularSystemError,
    TruncatedSystem,
    ZeroDiagonalError,
    converge,
    dominance_report,
    solve,
    truncate,
)


def diag_oracle(diag, b=lambda i: 0.0):
    return CoefficientOracle(
        a=lambda i, j: np.where(i == j, diag(i), 0.0), b=b, name="diag")


def test_identity_system_solves_exactly():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, 0.0), b=lambda i: 1.0 * i)
    res = solve(truncate(oracle, 5))
    assert np.array_equal(res.x, np.arange(1.0, 6.0))
    assert res.residual == 0.0


def test_two_by_two_hand_solution():
    oracle = CoefficientOracle(
        a=lambda i, j: np.array([[2.0, 1.0], [1.0, 3.0]])[i - 1, j - 1],
        b=lambda i: np.array([3.0, 5.0])[i - 1])
    res = solve(truncate(oracle, 2))
    assert res.x[0] == pytest.approx(0.8, rel=1e-14)
    assert res.x[1] == pytest.approx(1.4, rel=1e-14)
    assert res.residual < 1e-14


def test_tridiagonal_known_solution():
    a = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    res = solve(TruncatedSystem(n=3, a=a, b=a @ np.ones(3)))
    np.testing.assert_allclose(res.x, np.ones(3), rtol=1e-14)


def test_solve_is_refinement_stable_on_a_real_assembly():
    """One step of iterative refinement must not move the solution.

    The residual is accumulated in extended precision against the original
    (unequilibrated) matrix; if the returned solution were losing digits to
    the scaling or the factorization, the correction would be visible.
    """
    model = mgqueue.MgModel(lam=0.4, service=ServiceDistribution.exponential(1.0))
    system = truncate(mgqueue.moment_oracle(model), 12)
    x = solve(system).x
    r = system.b.astype(np.longdouble) - system.a.astype(np.longdouble) @ x
    dx = np.linalg.solve(system.a, np.asarray(r, dtype=float))
    assert np.abs(dx).max() <= 1e-10 * np.abs(x).max()


def test_truncate_rejects_nonpositive_order():
    oracle = diag_oracle(lambda i: 1.0)
    with pytest.raises(ValueError):
        truncate(oracle, 0)


def test_truncate_names_the_bad_coefficient():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where((i == 2) & (j == 3), math.nan,
                                np.where(i == j, 1.0, 0.0)),
        b=lambda i: 1.0)
    with pytest.raises(AssemblyError, match=r"a\(2,3\)"):
        truncate(oracle, 3)


def test_truncate_names_the_bad_rhs():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, 0.0),
        b=lambda i: np.where(i == 2, math.inf, 1.0))
    with pytest.raises(AssemblyError, match=r"b\(2\)"):
        truncate(oracle, 3)


def test_solve_rejects_singular_matrix():
    oracle = CoefficientOracle(a=lambda i, j: 1.0, b=lambda i: 1.0)
    with pytest.raises(SingularSystemError):
        solve(truncate(oracle, 3))


def test_solve_rejects_zero_row():
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularSystemError, match="zero row"):
        solve(TruncatedSystem(n=2, a=a, b=np.array([1.0, 0.0])))


def test_solve_rejects_rectangular_matrix():
    with pytest.raises(ValueError):
        solve(TruncatedSystem(n=2, a=np.ones((2, 3)), b=np.ones(2)))


def test_dominance_violation_is_reported():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, np.where(j == i + 1, 2.0, 0.0)),
        b=lambda i: 0.0)
    rep = dominance_report(oracle, order=4)
    assert not rep.satisfied
    assert rep.sigma[0] == 2.0
    # Constant diagonal also breaks summability of 1/|a_ii|.
    assert not rep.diag_sums_summable


def test_dominance_satisfied_with_growing_diagonal():
    rep = dominance_report(diag_oracle(lambda i: 2.0 ** i), order=4)
    assert rep.satisfied
    assert not rep.marginal
    assert rep.analytic_region_ok is None
    assert not rep.tail_is_analytic
    assert any("lower estimate" in n for n in rep.notes)
    assert rep.to_dict()["max_sigma"] == 0.0


def test_dominance_uses_analytic_tail_bound():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 2.0 ** i, 0.0), b=lambda i: 0.0,
        tail_row_bound=lambda i, cutoff: 1.0)
    rep = dominance_report(oracle, order=4)
    assert rep.tail_is_analytic
    assert rep.sigma[0] == 0.5
    assert not any("lower estimate" in n for n in rep.notes)


def test_dominance_marginal_flag():
    outside = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 2.0 ** i, 0.0), b=lambda i: 0.0,
        analytic_region=lambda: False)
    rep = dominance_report(outside, order=4)
    assert rep.satisfied and rep.marginal
    assert rep.analytic_region_ok is False
    inside = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 2.0 ** i, 0.0), b=lambda i: 0.0,
        analytic_region=lambda: True)
    rep = dominance_report(inside, order=4)
    assert rep.satisfied and not rep.marginal
    assert rep.analytic_region_ok is True


def test_dominance_rejects_zero_diagonal():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where((i == j) & (i != 2), 1.0, 0.0),
        b=lambda i: 0.0)
    with pytest.raises(ZeroDiagonalError):
        dominance_report(oracle, order=3)


def test_dominance_argument_validation():
    oracle = diag_oracle(lambda i: 2.0 ** i)
    with pytest.raises(ValueError):
        dominance_report(oracle, order=0)
    with pytest.raises(ValueError):
        dominance_report(oracle, order=5, tail_cutoff=3)


def test_dominance_survives_uncomputable_deep_entries():
    """Probes stop at the first row a quadrature-style oracle cannot price."""

    def a(i, j):
        if np.any(i > 6):
            raise ValueError("entry out of numeric range")
        return np.where(i == j, 2.0 ** i, 0.0)

    rep = dominance_report(CoefficientOracle(a=a, b=lambda i: 0.0), order=3)
    assert rep.satisfied
    assert any("diagonal probe ended at row 6" in n for n in rep.notes)
    assert any("column sums probed to row 6" in n for n in rep.notes)


def test_converge_on_identity():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, 0.0), b=lambda i: 1.0)
    conv = converge(oracle, n_start=4, n_max=32, tol=1e-12)
    assert conv.converged
    assert conv.rungs == [4, 8]
    assert conv.n_used == 8
    assert conv.max_gap == 0.0
    assert np.all(conv.values == 1.0)
    assert len(conv.residuals) == 2


def test_converge_reports_exhaustion_honestly():
    """A boundary artifact that never decays must come back converged=False.

    Bidiagonal system x_j + x_{j+1}/2 = 1 has truncation solutions whose
    last entry is pinned at 1 while the infinite solution is 2/3, so rungs
    always disagree near the shared boundary.
    """
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, np.where(j == i + 1, 0.5, 0.0)),
        b=lambda i: 1.0)
    conv = converge(oracle, n_start=4, n_max=32, tol=1e-10)
    assert not conv.converged
    assert conv.n_used == 32
    assert conv.rungs == [4, 8, 16, 32]
    assert 0.2 < conv.max_gap < 0.4


def test_converge_caps_the_last_rung_at_n_max():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, np.where(j == i + 1, 0.5, 0.0)),
        b=lambda i: 1.0)
    conv = converge(oracle, n_start=4, n_max=10, tol=1e-10)
    assert conv.rungs == [4, 8, 10]
    assert conv.n_used == 10


def test_converge_pins_the_last_rung_when_n_max_equals_n_start():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, 0.0), b=lambda i: 1.0)
    assert converge(oracle, 8, 8, 1e-12).rungs == [4, 8]


def test_converge_argument_validation():
    oracle = diag_oracle(lambda i: 1.0, b=lambda i: 1.0)
    with pytest.raises(ValueError):
        converge(oracle, n_start=1, n_max=8, tol=1e-8)
    with pytest.raises(ValueError):
        converge(oracle, n_start=4, n_max=7, tol=1e-8)
    with pytest.raises(ValueError):
        converge(oracle, n_start=4, n_max=8, tol=0.0)
