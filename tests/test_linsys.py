"""Truncated-system machinery: assembly, solving, dominance, the ladder."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedq import giqueue, linsys, mgqueue
from gatedq.distributions import ArrivalDistribution, ServiceDistribution
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


def diag_oracle(diag, b=lambda i: 0.0, **fields):
    return CoefficientOracle(
        a=lambda i, j: np.where(i == j, diag(i), 0.0), b=b, name="diag",
        **fields)


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


def test_solve_rejects_a_near_singular_matrix():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + np.finfo(float).eps]])
    with pytest.raises(SingularSystemError, match="condition number"):
        solve(TruncatedSystem(n=2, a=a, b=np.array([1.0, 2.0])))


def test_solve_reports_the_reciprocal_condition_number():
    assert solve(TruncatedSystem(n=4, a=np.eye(4), b=np.ones(4))).rcond == 1.0
    # Row equilibration makes this diagonal system the identity.
    a = np.diag([1.0, 1e3, 1e-6])
    assert solve(TruncatedSystem(n=3, a=a, b=np.ones(3))).rcond == 1.0
    a = np.array([[2.0, 1.0], [1.0, 2.0]])  # row-scaled: [[1, .5], [.5, 1]]
    assert solve(TruncatedSystem(n=2, a=a, b=np.ones(2))).rcond == (
        pytest.approx(1.0 / 3.0, rel=1e-14))


def test_solve_rejects_rectangular_matrix():
    with pytest.raises(ValueError):
        solve(TruncatedSystem(n=2, a=np.ones((2, 3)), b=np.ones(2)))


def zero_row_sums(i):
    """Exact row sums of a diagonal oracle with summable 1/|a_ii|."""
    return np.zeros(len(i)), True, True


def test_dominance_violation_is_reported():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(i == j, 1.0, np.where(j == i + 1, 2.0, 0.0)),
        b=lambda i: 0.0,
        # Constant diagonal also breaks summability of 1/|a_ii|.
        exact_row_sums=lambda i: (np.full(len(i), 2.0), False, True))
    rep = dominance_report(oracle, order=4)
    assert not rep.satisfied
    assert rep.sigma[0] == 2.0
    assert not rep.diag_sums_summable


def test_dominance_satisfied_with_growing_diagonal():
    rep = dominance_report(diag_oracle(lambda i: 2.0 ** i,
                                       exact_row_sums=zero_row_sums), order=4)
    assert rep.satisfied and rep.certifies
    assert not rep.marginal
    assert rep.analytic_region_ok is None
    assert rep.tail_is_analytic and rep.notes == []
    assert rep.to_dict()["max_sigma"] == 0.0


def test_dominance_marginal_flag():
    def oracle(region):
        return diag_oracle(lambda i: 2.0 ** i, analytic_region=lambda: region,
                           exact_row_sums=zero_row_sums)

    rep = dominance_report(oracle(False), order=4)
    assert rep.satisfied and rep.marginal
    assert rep.analytic_region_ok is False
    rep = dominance_report(oracle(True), order=4)
    assert rep.satisfied and not rep.marginal
    assert rep.analytic_region_ok is True


@pytest.mark.parametrize("exact", [False, True], ids=["unknown", "exact"])
def test_a_report_is_either_exact_or_unknown(exact):
    oracle = diag_oracle(lambda i: 2.0 ** i, analytic_region=lambda: False,
                         exact_row_sums=zero_row_sums if exact else None)
    rep = dominance_report(oracle, order=4)
    assert rep.tail_is_analytic is exact and rep.certifies is exact
    data = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
    # Neither kind reads a cutoff; the key stays, as null.
    assert data["tail_cutoff"] is None
    if exact:
        assert rep.satisfied and rep.marginal
        assert data["row_sums_bounded"] is True
        assert data["notes"] == ["rows 1..4 are dominant but the parameters "
                                 "lie outside the closed-form sufficient "
                                 "region"]
        return
    # Rows with no stated sums are finite, perhaps, but unknown: NaN in
    # memory, null in JSON, and never satisfied.
    assert np.isnan(rep.sigma).all() and math.isnan(rep.max_offdiag_row_sum)
    assert data["sigma"] == [None] * 4 and data["max_sigma"] is None
    assert data["max_offdiag_row_sum"] is None and data["worst_row"] == 1
    for key in ("diag_sums_summable", "col_sums_finite", "row_sums_bounded",
                "satisfied", "marginal"):
        assert data[key] is False, key
    assert data["analytic_region_ok"] is False
    assert data["notes"] == ["diag states no row sums: every sigma and the "
                             "side conditions are unknown"]


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


def test_an_unknown_report_reads_only_rows_1_to_order():
    """An oracle that cannot price rows past 3 still reports on rows 1..3,
    whose diagonal is the one block read; a report on row 4 passes the
    oracle's exception on, as truncate does."""

    def a(i, j):
        if np.any(np.asarray(i) > 3):
            raise ValueError("entry out of numeric range")
        return np.where(i == j, 2.0 ** i, 0.0)

    oracle = CoefficientOracle(a=a, b=lambda i: 0.0)
    rep = dominance_report(oracle, order=3)
    assert len(rep.sigma) == 3 and not rep.satisfied
    with pytest.raises(ValueError, match="entry out of numeric range"):
        dominance_report(oracle, order=4)


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


def test_converge_stops_before_a_rung_it_cannot_assemble():
    class Uncomputable(ValueError):
        pass

    def a(i, j):
        if np.any(i > 10):
            raise Uncomputable("entry (11, 1) cannot be computed")
        return np.where(i == j, 1.0, np.where(j == i + 1, 0.5, 0.0))

    oracle = CoefficientOracle(a=a, b=lambda i: 1.0)
    conv = converge(oracle, 4, 32, 1e-10, stop_on=(Uncomputable,))
    assert not conv.converged
    assert conv.rungs == [4, 8] and conv.n_used == 8 and len(conv.values) == 8
    assert conv.stopped == ("rung 16 could not be assembled: entry (11, 1) "
                            "cannot be computed")
    assert converge(oracle, 4, 8, 1e-10, stop_on=(Uncomputable,)).stopped is None
    # On the first rung, and without stop_on, the exception propagates.
    with pytest.raises(Uncomputable):
        converge(oracle, 16, 32, 1e-10, stop_on=(Uncomputable,))
    with pytest.raises(Uncomputable):
        converge(oracle, 4, 32, 1e-10)


class _Uncomputable(ValueError):
    pass


@settings(max_examples=40, deadline=None)
@given(n_start=st.integers(min_value=2, max_value=12),
       rungs=st.integers(min_value=1, max_value=4),
       reach=st.integers(min_value=0, max_value=3))
def test_a_stopped_ladder_writes_standard_json(n_start, rungs, reach):
    # Rows past the last rung that solves cannot be computed; reach moves
    # the failure inside the next rung, which holds rows last+1..2*last.
    last = n_start * 2 ** (rungs - 1)
    limit = last + reach % last

    def a(i, j):
        if np.any(np.asarray(i) > limit):
            raise _Uncomputable(f"row {limit + 1} cannot be computed")
        return np.where(i == j, 1.0, np.where(j == i + 1, 0.5, 0.0))

    conv = converge(CoefficientOracle(a=a, b=lambda i: 1.0), n_start,
                    8 * last, 1e-300, stop_on=(_Uncomputable,))
    assert conv.stopped and conv.rungs[-1] == last
    out = json.loads(json.dumps(conv.to_dict(), allow_nan=False))
    if rungs == 1:
        assert conv.max_gap == math.inf and out["max_gap"] is None
    else:
        assert out["max_gap"] == conv.max_gap


def test_converge_argument_validation():
    oracle = diag_oracle(lambda i: 1.0, b=lambda i: 1.0)
    with pytest.raises(ValueError):
        converge(oracle, n_start=1, n_max=8, tol=1e-8)
    with pytest.raises(ValueError):
        converge(oracle, n_start=4, n_max=7, tol=1e-8)
    with pytest.raises(ValueError):
        converge(oracle, n_start=4, n_max=8, tol=0.0)


def counting(oracle, log):
    """oracle whose a and b append every index they are asked for to log."""

    def a(i, j):
        i, j = np.broadcast_arrays(i, j)
        log.append(("a", len(log)))
        log.extend(zip(i.ravel().tolist(), j.ravel().tolist()))
        return oracle.a(i, j)

    def b(i):
        log.extend((k,) for k in np.ravel(i).tolist())
        return oracle.b(i)

    return CoefficientOracle(a=a, b=b, name=oracle.name)


BIDIAGONAL = CoefficientOracle(
    a=lambda i, j: np.where(i == j, 1.0, np.where(j == i + 1, 0.5, 0.0)),
    b=lambda i: 1.0)


@pytest.mark.parametrize("n_start,n_max,rungs", [
    (2, 10, [2, 4, 8, 10]),   # the last rung capped at n_max
    (3, 48, [3, 6, 12, 24, 48]),
    (8, 8, [4, 8]),           # pinned
])
def test_a_ladder_requests_each_coefficient_once(n_start, n_max, rungs):
    log = []
    conv = converge(counting(BIDIAGONAL, log), n_start, n_max, 1e-300)
    assert conv.rungs == rungs
    calls = [e for e in log if e[0] == "a"]
    entries = [e for e in log if e[0] != "a"]
    n = rungs[-1]
    assert sorted(p for p in entries if len(p) == 2) == [
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    assert sorted(p for p in entries if len(p) == 1) == [
        (i,) for i in range(1, n + 1)]
    # The first two rungs share one call; each later rung makes two more,
    # for the new columns of the old rows and for the new rows.
    assert len(calls) == 1 + 2 * (len(rungs) - 2)


def erlang2_law(rate=10.0):
    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, rate * rate * y * np.exp(-rate * y))

    def cdf(y):
        y = np.asarray(y, dtype=float)
        return np.where(y < 0, 0.0, 1.0 - (1.0 + rate * y) * np.exp(-rate * y))

    return ServiceDistribution.from_callables(pdf, cdf, name="erlang2")


def reference_ladder(oracle, n_start, n_max, tol):
    """The doubling ladder with every rung assembled on its own by truncate:
    (rungs, last solution, residuals, reciprocal condition numbers)."""
    if n_max == n_start:
        n_start = max(2, n_start // 2)
    rungs, residuals, rconds, x = [], [], [], None
    n = n_start
    while True:
        res = solve(truncate(oracle, n))
        rungs.append(n)
        residuals.append(res.residual)
        rconds.append(res.rcond)
        done = x is not None and np.abs(res.x[:len(x)] - x).max() <= tol
        x = res.x
        if done or n >= n_max:
            return rungs, x, residuals, rconds
        n = min(2 * n, n_max)


def mg_general(lam=0.25):
    return mgqueue.moment_oracle(mgqueue.MgModel(lam, erlang2_law()),
                                 assembly="general")


LADDER_ORACLES = {
    "mg-transformed": lambda: mgqueue.moment_oracle(mgqueue.MgModel(
        0.7, ServiceDistribution.exponential(1.0))),
    "mg-general": mg_general,
    "gi-poisson": lambda: giqueue.factorial_oracle(giqueue.GiModel(
        ArrivalDistribution.poisson(0.6), 1.0)),
    "gi-general": lambda: giqueue.factorial_oracle(giqueue.GiModel(
        ArrivalDistribution.deterministic(2.0), 1.0)),
}


@pytest.mark.parametrize("make", LADDER_ORACLES.values(),
                         ids=list(LADDER_ORACLES))
@pytest.mark.parametrize("n_start,n_max,tol", [
    (4, 32, 1e-12), (4, 12, 1e-300), (8, 8, 1e-8), (5, 40, 1e-8)])
def test_the_growing_ladder_gives_the_floats_of_rung_by_rung_truncation(
        make, n_start, n_max, tol):
    # Each side gets oracles of its own, so a memoized gamma table is cold
    # for the ladder once and warm for it once.
    ref = reference_ladder(make(), n_start, n_max, tol)
    cold = converge(make(), n_start, n_max, tol)
    oracle = make()
    converge(oracle, n_start, n_max, tol)
    warm = converge(oracle, n_start, n_max, tol)
    for conv in (cold, warm):
        assert conv.rungs == ref[0]
        assert np.array_equal(conv.values, ref[1])
        assert np.array_equal(conv.residuals, ref[2])
        assert np.array_equal(conv.rconds, ref[3])


def test_a_ladder_keeps_each_rungs_condition_number_out_of_its_dict():
    conv = converge(BIDIAGONAL, 4, 16, 1e-300)
    assert conv.rconds == [solve(truncate(BIDIAGONAL, n)).rcond
                           for n in conv.rungs]
    assert len(conv.rconds) == 3 and all(0.0 < r <= 1.0 for r in conv.rconds)
    assert "rconds" not in conv.to_dict()


def test_a_bad_entry_of_the_first_rung_raises_what_truncate_raises():
    # Rung 1 holds (3, 2) and (2, 4) is its first bad entry in row-major
    # order; (1, 7) lies only in rung 2 and comes first in the 8 x 8 block.
    oracle = CoefficientOracle(
        a=lambda i, j: np.where(((i == 3) & (j == 2)) | ((i == 2) & (j == 4))
                                | ((i == 1) & (j == 7)), math.inf,
                                BIDIAGONAL.a(i, j)),
        b=BIDIAGONAL.b, name="bad")
    with pytest.raises(AssemblyError) as want:
        truncate(oracle, 4)
    assert "a(2,4)" in str(want.value)
    with pytest.raises(AssemblyError) as got:
        converge(oracle, 4, 32, 1e-8, stop_on=(AssemblyError,))
    assert str(got.value) == str(want.value)


def test_a_bad_entry_of_a_later_rung_waits_for_its_rung():
    oracle = CoefficientOracle(
        a=lambda i, j: np.where((i == 3) & (j == 11), math.nan,
                                BIDIAGONAL.a(i, j)),
        b=BIDIAGONAL.b, name="bad")
    conv = converge(oracle, 4, 32, 1e-300, stop_on=(AssemblyError,))
    assert conv.rungs == [4, 8] and not conv.converged
    with pytest.raises(AssemblyError) as want:
        truncate(oracle, 16)
    assert conv.stopped == f"rung 16 could not be assembled: {want.value}"
    with pytest.raises(AssemblyError, match=r"a\(3,11\)"):
        converge(oracle, 4, 32, 1e-300)


def test_a_singular_first_rung_raises_before_a_bad_second_rung():
    # Rows 1 and 2 of rung 1 are equal; rung 2 cannot be assembled.
    def a(i, j):
        if np.any(np.asarray(i) > 2):
            raise _Uncomputable("row 3 cannot be computed")
        return np.ones(np.broadcast(i, j).shape)

    oracle = CoefficientOracle(a=a, b=lambda i: 1.0)
    with pytest.raises(SingularSystemError):
        converge(oracle, 2, 8, 1e-8, stop_on=(_Uncomputable,))


def test_a_later_rung_stops_on_its_first_uncomputable_entry():
    # (3, 6) is a new column of an old row, (5, 1) lies in a new row; in
    # row-major order of rung 8, (3, 6) comes first.
    bad = {(3, 6), (5, 1)}

    def a(i, j):
        i, j = np.broadcast_arrays(i, j)
        for p in zip(i.ravel().tolist(), j.ravel().tolist()):
            if p in bad:
                raise _Uncomputable(f"entry {p} cannot be computed")
        return BIDIAGONAL.a(i, j)

    oracle = CoefficientOracle(a=a, b=BIDIAGONAL.b)
    with pytest.raises(_Uncomputable, match=r"\(3, 6\)") as want:
        truncate(oracle, 8)
    conv = converge(oracle, 2, 8, 1e-300, stop_on=(_Uncomputable,))
    assert conv.rungs == [2, 4]
    assert conv.stopped == f"rung 8 could not be assembled: {want.value}"


# --------------------------------------------- certificates and solutions ----

@pytest.mark.parametrize("make,certifies", [
    (LADDER_ORACLES["mg-transformed"], True),
    (LADDER_ORACLES["mg-general"], False),
    (lambda: giqueue.factorial_oracle(giqueue.GiModel(
        ArrivalDistribution.poisson(0.2), 1.0)), True),
    (LADDER_ORACLES["gi-poisson"], False),
    (LADDER_ORACLES["gi-general"], False),
], ids=["mg-transformed", "mg-general", "gi-poisson", "gi-poisson-failed",
        "gi-general"])
def test_a_report_certifies_only_with_an_analytic_tail_and_a_passed_probe(
        make, certifies):
    rep = dominance_report(make(), order=8)
    assert rep.certifies is certifies
    assert rep.certifies == (rep.tail_is_analytic and rep.satisfied)
    # Every one of these oracles states its row sums, so a report that is
    # satisfied certifies.
    assert rep.tail_is_analytic and rep.satisfied is certifies
    assert "certifies" not in rep.to_dict()


def mg_solve(lam, assembly="auto"):
    return mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, ServiceDistribution.exponential(1.0)), order=8,
        assembly=assembly)


def gi_solve(rho):
    return giqueue.solve_factorial_moments(
        giqueue.GiModel(ArrivalDistribution.poisson(rho), 1.0), order=8)


@pytest.mark.parametrize("solve_", [
    lambda: mg_solve(0.5), lambda: mg_solve(0.8), lambda: mg_solve(0.95),
    lambda: gi_solve(0.2), lambda: gi_solve(0.45),
], ids=["mg-0.5", "mg-0.8", "mg-0.95", "gi-0.2", "gi-0.45"])
def test_a_solution_with_a_row_tail_is_heuristic_unless_it_certifies(solve_):
    sol = solve_()
    assert isinstance(sol, linsys.LadderSolution)
    assert sol.oracle.exact_row_sums is not None
    assert sol.heuristic == (not sol.dominance.certifies)


def test_a_solution_that_cannot_certify_is_heuristic_after_one_report(
        monkeypatch):
    probes = []
    report = linsys.dominance_report

    def counted(oracle, order):
        probes.append(oracle.exact_row_sums is not None)
        return report(oracle, order)

    monkeypatch.setattr(linsys, "dominance_report", counted)
    # The general M/G rows are stated unbounded; the general GI rows of
    # deterministic arrivals are exact but their inverse diagonals are not
    # summable, and the same law given by callables states no row sums.
    law = ArrivalDistribution.deterministic(2.0)
    as_callables = ArrivalDistribution.from_callables(
        law.sample, law.laplace, 2.0, 4.0)
    sols = [mg_solve(0.3, assembly="general")] + [
        giqueue.solve_factorial_moments(giqueue.GiModel(arrivals, 1.0),
                                        order=8)
        for arrivals in (law, as_callables)]
    for _ in range(2):  # the second read takes the cached report
        assert [s.heuristic for s in sols] == [True, True, True]
    assert probes == [True, True, False]


def test_a_ladder_solution_takes_its_fields_by_keyword_only():
    conv = converge(BIDIAGONAL, 4, 8, 1e-300)
    with pytest.raises(TypeError):
        linsys.LadderSolution(conv.converged, conv, BIDIAGONAL)
    sol = linsys.LadderSolution(converged=conv.converged, convergence=conv,
                                oracle=BIDIAGONAL)
    # The report covers min(n_used, 64) rows; BIDIAGONAL states no row
    # sums, so its report is unknown.
    assert sol.notes == [] and sol.heuristic
    assert sol.dominance.order == 8 and not sol.dominance.certifies
    assert "oracle" not in repr(sol)
