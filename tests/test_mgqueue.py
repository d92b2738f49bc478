"""Stage-length analytics for the gated M/G/infinity queue."""

import dataclasses
import gc
import json
import math
import sys
import threading
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import integrate

from gatedq import cli, distributions, linsys, mgqueue
from gatedq.distributions import (
    DivergentMomentError,
    GammaTable,
    ServiceDistribution,
    min_moment,
    piecewise_integral,
    support_end,
    tail_support,
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


def erlang2(rate=10.0, nodes=None, exact_sf=False):
    """Erlang-2 law on y >= 0 as numpy expressions; nodes records cdf calls.
    By default the tail is 1 - cdf."""

    def cdf(y):
        if nodes is not None:
            nodes.extend(np.ravel(y).tolist())
        return 1.0 - (1.0 + rate * y) * np.exp(-rate * y)

    def sf(y):
        return (1.0 + rate * y) * np.exp(-rate * y)

    return ServiceDistribution.from_callables(
        pdf=lambda y: rate * rate * y * np.exp(-rate * y), cdf=cdf,
        name="erlang2", sf=sf if exact_sf else None)


def hyperexponential(exact_sf):
    """Rates 5 and 5/3 with weight 1/2 each; 1 - cdf rounds to 0 near y = 21."""

    def sf(y):
        return 0.5 * np.exp(-5.0 * y) + 0.5 * np.exp(-5.0 * y / 3.0)

    return ServiceDistribution.from_callables(
        pdf=lambda y: 2.5 * np.exp(-5.0 * y) + 2.5 / 3.0 * np.exp(-5.0 * y / 3.0),
        cdf=lambda y: 1.0 - sf(y), name="hyperexp",
        sf=sf if exact_sf else None)


def uniform_law(b, exact_sf=False):
    """Uniform(0, b) as numpy expressions, by default without an exact tail."""

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return np.where((y >= 0) & (y <= b), 1.0 / b, 0.0)

    def cdf(y):
        return np.clip(np.asarray(y, dtype=float) / b, 0.0, 1.0)

    def sf(y):
        return np.clip(1.0 - np.asarray(y, dtype=float) / b, 0.0, 1.0)

    return ServiceDistribution.from_callables(
        pdf, cdf, name=f"uniform({b})", sf=sf if exact_sf else None)


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


@seed(7319)
@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.01, 5.0), mu=st.floats(0.2, 5.0),
       x=st.floats(0.0, 20.0))
def test_kernel_rows_integrate_to_one_for_any_rates(lam, mu, x):
    # Past y = 40/mu the row keeps at most (1 + lam x) e^-40 of its mass.
    m = mgqueue.MgModel(lam, ServiceDistribution.exponential(mu))
    mass = piecewise_integral(lambda y: mgqueue.kernel_density(m, x, y),
                              [0.0, 40.0 / mu])
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_kernel_rejects_negative_arguments():
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), -1.0, 0.5)
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), 1.0, -0.5)
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), 0.2, math.nan)
    with pytest.raises(ValueError):
        mgqueue.kernel_density(model(), math.nan, 0.5)


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


def test_long_ladder_leaves_out_beta_beyond_double_range():
    """From i = 171 on, i! leaves double range.  The ladder at rho = 0.8
    runs to 320 unknowns; every beta_i with i >= 171 overflows a double and
    is left out with a note, and the rest keep the exact expression."""
    lam = 0.8
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, ServiceDistribution.exponential(1.0)),
        order=10, tol=1e-12, n_max=640)
    assert sol.converged and sol.n_used == 320
    assert sorted(sol.y) == list(range(2, 321))
    assert sorted(sol.beta) == list(range(2, 171))
    for i in range(2, 171):
        assert sol.beta[i] == math.factorial(i) * sol.y[i] / lam ** i
    assert (f"beta_i outside double range, left out of beta, at indices "
            f"{list(range(171, 321))}") in sol.notes


def test_beta_past_factorial_range_is_formed_in_log_space():
    # With mu = 8, beta_i stays in double range well past i = 171, where
    # i! alone does not.
    lam = 6.4
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, ServiceDistribution.exponential(8.0)), order=22)
    assert sol.converged and sol.n_used == 176
    assert sorted(sol.beta) == list(range(2, 177))
    assert not sol.notes
    for i in range(2, 171):
        assert sol.beta[i] == math.factorial(i) * sol.y[i] / lam ** i
    for i in range(171, 177):
        exact = float(Fraction(math.factorial(i)) * Fraction(sol.y[i])
                      / Fraction(lam) ** i)
        assert sol.beta[i] == pytest.approx(exact, rel=1e-12)


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
    # The general rows are stated unbounded, so the report, read from the
    # diagonal alone, cannot certify the result.
    assert sol.heuristic
    dom = sol.dominance
    assert dom.tail_is_analytic and not dom.satisfied
    assert np.isposinf(dom.sigma).all() and len(dom.sigma) == 16
    assert not any("probe" in n for n in dom.notes)


@pytest.mark.parametrize("lam", [0.05, 0.25])
def test_general_solve_is_heuristic_with_every_sigma_unbounded(
        lam, monkeypatch):
    probes = count_probes(monkeypatch)
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, erlang2(exact_sf=True)), order=4)
    assert probes == []
    # The flag reads one exact report: every sigma_i of the infinite system
    # is infinite, where a probe of 4 * order columns used to pass.
    assert sol.heuristic and probes == [sol.n_used]
    dom = sol.dominance
    assert dom.tail_is_analytic and dom.to_dict()["tail_cutoff"] is None
    assert not dom.satisfied and dom.max_sigma == math.inf
    data = sol.to_dict()
    assert data["heuristic"] is True and probes == [sol.n_used]
    assert data["dominance"]["sigma"] == [None] * sol.n_used
    assert data["dominance"]["max_sigma"] is None


def test_general_assembly_writes_a_heuristic_analyze_mg(tmp_path):
    assert cli.main(["analyze-mg", "--lambda", "0.1", "--mu", "2.5",
                     "--assembly", "general", "--order", "8",
                     "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "analyze-mg.json").read_text())
    assert data["assembly"] == "general"
    assert data["heuristic"] is True
    assert data["dominance"]["satisfied"] is False
    assert data["dominance"]["tail_is_analytic"] is True
    assert data["dominance"]["max_offdiag_row_sum"] is None


# ------------------------------------------------- dominance on demand ----

def count_probes(monkeypatch):
    """Wrap linsys.dominance_report; returns the list of orders probed."""
    probes = []
    report = linsys.dominance_report

    def counted(oracle, order):
        probes.append(order)
        return report(oracle, order)

    monkeypatch.setattr(linsys, "dominance_report", counted)
    return probes


def test_a_solve_does_not_probe_and_a_read_probes_once(monkeypatch):
    probes = count_probes(monkeypatch)
    sol = mgqueue.solve_stage_moments(model(), order=10)
    general = mgqueue.solve_stage_moments(model(), order=8, n_max=8,
                                          assembly="general")
    assert probes == []
    first = sol.dominance
    assert sol.dominance is first and probes == [sol.n_used]
    assert not sol.heuristic and probes == [sol.n_used]
    assert general.heuristic and probes == [sol.n_used, 8]
    general.to_dict()
    general.to_dict()
    assert probes == [sol.n_used, 8]


def test_a_general_solve_alone_runs_only_its_rungs_and_beta1(monkeypatch):
    batches = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        batches.append(len(pairs))
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    sol = mgqueue.solve_stage_moments(mgqueue.MgModel(0.25, erlang2()), order=4)
    sol.heuristic
    # Rungs 4 and 8 in one block, then beta_1's gamma_{1,k}; no probe block.
    assert batches == [72, 9] and sum(batches) == 81


def test_a_cold_general_to_dict_computes_no_min_moment(monkeypatch):
    batches = count_batches(monkeypatch)
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(2.0, erlang2(exact_sf=True)), order=4)
    solved = list(batches)
    data = sol.to_dict()
    # The report reads only diagonal entries the rungs computed.
    assert solved and batches == solved
    assert data["heuristic"] is True
    assert data["dominance"]["tail_is_analytic"] is True


def eager_dict(sol, m):
    """sol.to_dict() with the dominance report and the heuristic flag taken
    from a probe run at once on a fresh oracle of the model."""
    report = linsys.dominance_report(
        mgqueue.moment_oracle(m, assembly=sol.assembly),
        order=min(sol.n_used, 64))
    heuristic = sol.assembly == "general" or not report.satisfied
    return {**sol.to_dict(), "dominance": report.to_dict(),
            "heuristic": heuristic}


@pytest.mark.parametrize("make_law,lam,order,assembly,other_lam", [
    (lambda: ServiceDistribution.exponential(1.0), 0.3, 10, "auto", 0.6),
    (lambda: ServiceDistribution.exponential(1.0), 0.3, 8, "general", 0.6),
    (erlang2, 0.25, 4, "auto", 0.4),
    (lambda: uniform_law(0.5), 0.5, 4, "auto", 1.0),
], ids=["exponential", "exponential-general", "erlang2", "uniform"])
def test_to_dict_on_demand_equals_an_eager_probe(make_law, lam, order,
                                                 assembly, other_lam):
    fresh = mgqueue.MgModel(lam, make_law())
    eager = mgqueue.solve_stage_moments(fresh, order=order, assembly=assembly)
    want = eager_dict(eager, fresh)

    # The same solve on another law, whose table grows by another solve and
    # a density before the report is first read.
    law = make_law()
    m = mgqueue.MgModel(lam, law)
    sol = mgqueue.solve_stage_moments(m, order=order, assembly=assembly)
    mgqueue.solve_stage_moments(mgqueue.MgModel(other_lam, law), order=order,
                                assembly=assembly)
    mgqueue.stationary_density(sol, m, np.linspace(0.0, 1.0, 11))
    got = sol.to_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["analyze-mg", "--lambda", "1.0", "--mu", "2.5"],
    ["analyze-gi", "--rho", "0.3"],
], ids=["mg", "gi"])
def test_a_probe_that_raises_still_stops_analyze_before_writing(
        argv, tmp_path, monkeypatch, capsys):
    def broken(oracle, order, tail_cutoff=None):
        raise linsys.AssemblyError(f"{oracle.name}: probe refused")

    monkeypatch.setattr(linsys, "dominance_report", broken)
    mgqueue.solve_stage_moments(model(), order=10)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert "probe refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_replaced_solution_probes_on_its_own_read(monkeypatch):
    probes = count_probes(monkeypatch)
    sol = mgqueue.solve_stage_moments(model(), order=10)
    sol.dominance
    copy = dataclasses.replace(sol, converged=False)
    assert copy.oracle is sol.oracle and probes == [sol.n_used]
    assert copy.dominance is not sol.dominance
    copy.dominance
    assert probes == [sol.n_used, sol.n_used]
    assert copy.to_dict()["dominance"] == sol.to_dict()["dominance"]


def test_gamma_table_evaluates_each_tail_node_once():
    nodes = []
    table = GammaTable(erlang2(nodes=nodes))
    oracle = mgqueue.moment_oracle(
        mgqueue.MgModel(lam=0.25, service=table.dist), table=table)
    read_probe_blocks(oracle, order=8)
    assert np.count_nonzero(~np.isnan(table._values)) > 100
    assert len(nodes) == len(set(nodes)) == len(table._tails)


class ExponentialMoments:
    """The min moments gamma_{m,k} = m!/(k mu)^m of an exponential law,
    from lgamma, as a table that holds every entry."""

    def __init__(self, mu):
        self.mu = mu

    def gammas(self, ms, ks):
        m, k = np.broadcast_arrays(ms, ks)
        return np.reshape([math.exp(math.lgamma(p + 1.0) - p * math.log(
            q * self.mu)) for p, q in zip(m.ravel().tolist(),
                                          k.ravel().tolist())], m.shape)

    def ratios(self, ms, ks):
        m, k = np.broadcast_arrays(ms, ks)
        return k ** -m.astype(float)


@pytest.mark.parametrize("lam,mu,rate", [(0.0005, 0.001, True),
                                         (900.0, 1000.0, False)],
                         ids=["exponential", "log-space"])
def test_the_general_lead_stays_in_range_where_its_factors_do_not(lam, mu,
                                                                 rate):
    # Exponential: gamma_{m,1} = m!/mu^m overflows from m = 70 and lam^m
    # underflows from m = 99, and the lead is (mu/lam)^m = 2^m.  Without a
    # rate: lam^m overflows from m = 105 and m! from m = 171, while
    # gamma_{m,1} stays finite, and the lead (10/9)^m is taken in log space.
    idx = np.arange(1, 241)
    m = idx + 1.0
    if rate:
        oracle = mgqueue.moment_oracle(mgqueue.MgModel(
            lam, ServiceDistribution.exponential(mu)), assembly="general")
    else:
        oracle = mgqueue._general_oracle(mgqueue.MgModel(
            lam, wrapped_exponential(mu)), ExponentialMoments(mu))
    want = (mu / lam) ** m - (-1.0) ** m * (1.0 - m ** -m)
    np.testing.assert_allclose(oracle.a(idx, idx), want,
                               rtol=1e-13 if rate else 1e-11)


def test_a_general_lead_past_double_range_reads_inf():
    """uniform(0, 1) at lam = 1e-3: the lead i!/(lam^i gamma_{i,1}) =
    (i + 1)! / lam^i leaves double range from i = 70 (oracle row 69), and
    from i = 121 lam^i underflows and the log-space lead overflows too.
    Every such entry reads inf, and a truncation there is refused."""
    oracle = mgqueue.moment_oracle(mgqueue.MgModel(
        1e-3, uniform_law(1.0, exact_sf=True)))
    idx = np.arange(1, 121)
    np.testing.assert_array_equal(np.isinf(oracle.a(idx, idx)), idx >= 69)
    with pytest.raises(linsys.AssemblyError, match=r"a\(69,69\) = inf"):
        linsys.truncate(oracle, 120)


@pytest.mark.parametrize("yi", [0.0, math.inf, -math.inf])
def test_a_raw_moment_of_zero_or_infinite_y_is_that_value(yi):
    # 200! leaves double range, and so does 0.5^-200 times it.
    assert mgqueue._raw_moment(200, yi, 0.5) == yi


def test_general_oracle_computes_each_block_in_one_batch(monkeypatch):
    batches = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        batches.append(len(pairs))
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    sol = mgqueue.solve_stage_moments(mgqueue.MgModel(0.25, erlang2()), order=4)
    assert sol.convergence.rungs == [4, 8] and sol.dominance.order == 8
    # Each batch holds the block's entries not yet cached: rungs 4 and 8 in
    # one block, then beta_1's gamma_{1,k}.  The report reads only the
    # diagonal of rows 1..8, which the rungs hold.
    assert batches == [72, 9] and sum(batches) == 81


def read_probe_blocks(oracle, order):
    """Read through oracle.a the blocks a dominance probe of `order` rows
    would read: rows 1..order by columns 1..4*order, the transposed block
    and the diagonal to 4*order."""
    rows, cols = np.arange(1, order + 1), np.arange(1, 4 * order + 1)
    return [oracle.a(rows[:, None], cols[None, :]),
            oracle.a(cols[:, None], rows[None, :]), oracle.a(cols, cols)]


def count_batches(monkeypatch):
    """Record the size of each batch of min moments the tables compute."""
    batches = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        batches.append(len(pairs))
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    return batches


def test_a_general_block_on_a_warm_table_is_formed_from_its_gammas(
        monkeypatch):
    lam, law = 0.25, erlang2()
    table = GammaTable(law)
    table.gammas(np.arange(1, 13)[:, None], np.arange(1, 13))
    oracle = mgqueue.moment_oracle(mgqueue.MgModel(lam, law), table=table)
    batches = count_batches(monkeypatch)
    mi, mj = np.arange(1, 11)[:, None], np.arange(1, 12)
    got = oracle.a(mi, mj)
    assert batches == []
    want = np.empty(got.shape)
    for i in range(2, 12):
        first = float(table.gammas(i, 1))
        for j in range(2, 13):
            lead = math.factorial(i) / (lam ** i * first) if i == j else 0.0
            want[i - 2, j - 2] = lead - (-1.0) ** j * (
                1.0 - float(table.gammas(i, j)) / first)
    assert np.array_equal(got, want)


def test_a_converged_ladder_below_one_customer_per_stage_is_flagged():
    # Erlang-2 on a time scale of 1e-4: the min moments come out as junk,
    # and the ladder converges to s = -3e-36 where the true s is about 0.0996.
    c = 1e-4
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(2.0 / c, erlang2(rate=10.0 / c, exact_sf=True)),
        order=8)
    assert sol.convergence.converged and not sol.converged
    assert sol.s < 0
    assert any(f"s = {sol.s!r}" in note and f"beta_1 = {sol.beta1!r}" in note
               for note in sol.notes)
    with pytest.raises(UnconvergedError):
        mgqueue.mean_customers_per_stage(sol)
    sane = mgqueue.solve_stage_moments(
        mgqueue.MgModel(2.0, erlang2(rate=10.0, exact_sf=True)), order=8)
    assert sane.converged and sane.notes == []
    assert sane.s == pytest.approx(0.0996, abs=1e-4)


@dataclasses.dataclass
class Uncached(GammaTable):
    """A table whose entries each come from the memo-free min_moment, so
    each one calls the cdf at all its nodes; no tail is memoized.  Its
    entries go in a dict of its own, computed; the store stays empty."""

    computed: dict = dataclasses.field(default_factory=dict)

    def _entries(self, m, k):
        m, k = np.broadcast_arrays(m, k)
        pairs = list(zip(m.ravel().tolist(), k.ravel().tolist()))
        for p in pairs:
            if p not in self.computed:
                self.computed[p] = min_moment(self.dist, *p)
        return np.reshape([self.computed[p] for p in pairs], m.shape)


def test_tail_memo_leaves_the_general_solve_unchanged():
    law = erlang2()
    m = mgqueue.MgModel(lam=0.25, service=law)
    sol = mgqueue.solve_stage_moments(m, order=4)

    # The reference repeats the solve on an uncached table of its own.
    table = Uncached(law)
    oracle = mgqueue.moment_oracle(m, table=table)
    conv = linsys.converge(oracle, 4, 32, 1e-8)
    ks = list(range(2, conv.n_used + 2))
    g11, *g1k = table.gammas(1, [1] + ks).tolist()
    beta1 = g11 + math.fsum((-1.0) ** k * y * (g11 - g) for k, y, g in zip(
        ks, conv.values.tolist(), g1k))
    order = min(conv.n_used, 64)
    blocks = read_probe_blocks(oracle, order)
    assert table is not law.gamma_table and not table._tails
    assert np.isnan(table._values).all() and len(table.computed) > 100
    assert conv.rungs == sol.convergence.rungs
    assert np.array_equal(conv.values, sol.convergence.values)
    assert beta1 == sol.beta1
    for got, want in zip(read_probe_blocks(sol.oracle, order), blocks):
        assert np.array_equal(got, want)


def test_exact_sf_lets_a_hyperexponential_law_solve():
    # Without the exact tail, gamma_{26,1} cannot be certified: a first rung
    # that needs it raises, and a ladder that reaches it stops before it.
    cut = mgqueue.MgModel(lam=0.5, service=hyperexponential(False))
    with pytest.raises(DivergentMomentError, match="m=26, k=1"):
        mgqueue.solve_stage_moments(cut, order=32)
    short = mgqueue.solve_stage_moments(cut, order=4)
    assert not short.converged and short.n_used == 16
    assert any(n.startswith("ladder stopped at n = 16: rung 32 ")
               and "m=26, k=1" in n for n in short.notes)
    m = mgqueue.MgModel(lam=0.5, service=hyperexponential(True))
    sol = mgqueue.solve_stage_moments(m, order=4)
    assert sol.converged
    # The grid mean has an O(h^2) error; extrapolate from two grids.
    means = [integrate.trapezoid(fp.y * fp.f, fp.y) for fp in (
        mgqueue.fixed_point_density(m, n_points=n) for n in (1024, 2048))]
    assert sol.beta1 == pytest.approx((4.0 * means[1] - means[0]) / 3.0,
                                      rel=1e-6)


def lognormal(s=0.5, scale=0.4):
    """Lognormal law from its pdf and cdf alone, written with math.erfc."""

    def pdf(y):
        if y <= 0.0:
            return 0.0
        z = math.log(y / scale) / s
        return math.exp(-0.5 * z * z) / (y * s * math.sqrt(2.0 * math.pi))

    def cdf(y):
        if y <= 0.0:
            return 0.0
        return 0.5 * math.erfc(-math.log(y / scale) / (s * math.sqrt(2.0)))

    return ServiceDistribution.from_callables(pdf, cdf, name="lognormal")


def test_lognormal_ladder_stops_at_the_last_rung_that_solves():
    m = mgqueue.MgModel(lam=0.5, service=lognormal())
    sol = mgqueue.solve_stage_moments(m, order=8)
    assert not sol.converged and sol.n_used == 8
    assert sol.convergence.rungs == [8] and sol.convergence.max_gap == math.inf
    assert any(n.startswith("ladder stopped at n = 8: rung 16 ")
               and "m=16, k=1" in n for n in sol.notes)
    # Rung 8 is the same truncation the pinned ladder solves.
    pinned = mgqueue.solve_stage_moments(m, order=8, n_max=8)
    assert np.array_equal(sol.convergence.values, pinned.convergence.values)
    assert pinned.convergence.max_gap < 1e-6 and not pinned.notes
    with pytest.raises(DivergentMomentError, match="m=16, k=1"):
        mgqueue.solve_stage_moments(m, order=16)


def test_a_law_below_the_first_nodes_solves_like_its_rescaled_self():
    # uniform(0, 1e-3) lies below every Gauss-Kronrod node of [0, 1]; its
    # gamma_{1,1} once read 0.0 and the solve ended in ZeroDivisionError.
    # Scaling time by 1/b maps it to uniform(0, 1) at lam * b, whose stage
    # lengths are those of the original divided by b.
    b, lam = 1e-3, 0.5
    sol = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, uniform_law(b, exact_sf=True)), order=8)
    ref = mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam * b, uniform_law(1.0, exact_sf=True)), order=8)
    assert sol.converged and sol.n_used == ref.n_used
    assert sol.beta1 == pytest.approx(b * ref.beta1, rel=1e-12)
    assert sol.s == pytest.approx(ref.s, rel=1e-12)
    for k, yk in ref.y.items():
        assert sol.y[k] == pytest.approx(yk, rel=1e-12), k


# Loads fixed before the first run; each sweep visits them in both orders.
SWEEP_LAMS = (0.1, 0.37, 0.25, 0.4, 0.13)
SWEEP_LAWS = {"erlang2": erlang2, "uniform": lambda: uniform_law(0.5)}


@pytest.mark.parametrize("make", SWEEP_LAWS.values(), ids=list(SWEEP_LAWS))
def test_a_load_sweep_on_one_law_matches_fresh_laws(make):
    fresh = {lam: mgqueue.solve_stage_moments(
        mgqueue.MgModel(lam, make()), order=4).to_dict() for lam in SWEEP_LAMS}
    for lams in (SWEEP_LAMS, SWEEP_LAMS[::-1]):
        law = make()
        for lam in lams:
            sol = mgqueue.solve_stage_moments(mgqueue.MgModel(lam, law),
                                              order=4)
            assert sol.to_dict() == fresh[lam], lam


def counting(law):
    """law with a cdf that counts its calls in the returned dict."""
    calls = {"cdf": 0}

    def cdf(y):
        calls["cdf"] += 1
        return law.cdf(y)

    return ServiceDistribution.from_callables(law.pdf, cdf, name=law.name), calls


def test_a_failed_entry_fails_again_without_calling_the_cdf(monkeypatch):
    law, calls = counting(hyperexponential(False))
    batches = []
    batch = distributions._min_moments

    def counted(d, pairs, memo):
        batches.append(len(pairs))
        return batch(d, pairs, memo)

    monkeypatch.setattr(distributions, "_min_moments", counted)
    errors = []
    for lam in (0.5, 0.3):
        before = calls["cdf"], len(batches)
        with pytest.raises(DivergentMomentError) as info:
            mgqueue.solve_stage_moments(mgqueue.MgModel(lam, law), order=32)
        errors.append((type(info.value), str(info.value),
                       calls["cdf"] - before[0], len(batches) - before[1]))
    (kind, msg, cdf_calls, _), again = errors
    # The second solve computes nothing: the entry's failure is remembered.
    assert cdf_calls > 0 and again == (kind, msg, 0, 0)


def test_a_law_and_its_table_are_freed_together():
    law = erlang2()
    mgqueue.solve_stage_moments(mgqueue.MgModel(0.25, law), order=4)
    refs = weakref.ref(law), weakref.ref(law.gamma_table)
    del law
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_threads_sharing_a_law_match_serial_solves():
    # More threads than cores, switching often, each at its own load.
    lams = (0.15, 0.35, 0.25, 0.1)
    want = [mgqueue.solve_stage_moments(mgqueue.MgModel(lam, erlang2()),
                                        order=4).to_dict() for lam in lams]
    law = erlang2()
    got = [None] * len(lams)

    def work(w):
        got[w] = mgqueue.solve_stage_moments(mgqueue.MgModel(lams[w], law),
                                             order=4).to_dict()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(len(lams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == want


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
    with pytest.raises(ValueError):
        mgqueue.stationary_density(sol, m, math.nan)
    with pytest.raises(ValueError):
        mgqueue.stationary_density(sol, m, [0.5, math.nan])
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


@pytest.mark.parametrize("m,order", [(model(), 10),
                                     (mgqueue.MgModel(0.4, erlang2()), 4)],
                         ids=["exponential", "erlang2"])
def test_mixture_weights_are_computed_once_per_solution(m, order, monkeypatch):
    calls = []
    cutoff = mgqueue._series_cutoff
    monkeypatch.setattr(mgqueue, "_series_cutoff",
                        lambda y: calls.append(y) or cutoff(y))
    sol = mgqueue.solve_stage_moments(m, order=order)
    mgqueue.stationary_density(sol, m, 0.5)
    mgqueue.stationary_density(sol, m, np.linspace(0.0, 2.0, 9))
    for k in (1, 2, 3):
        mgqueue.stage_count_pmf(sol, m, k)
    assert len(calls) == 1


@pytest.mark.parametrize("law,lams", [
    (ServiceDistribution.exponential(1.0), (0.3, 0.7)),
    (erlang2(), (0.1, 0.4)),
    (uniform_law(0.5), (0.1, 0.4)),
], ids=["exponential", "erlang2", "uniform"])
def test_mixture_mean_is_the_recovered_beta1(law, lams):
    """The density's mixture of min-of-j laws has mean sum_j w_j gamma_{1,j},
    which must be the separately recovered beta_1.

    Both are the same sum over the solved y_k, except that the weights
    stop at the series cutoff, where |y_k| (1 + k) < 1e-12, and each
    dropped term is below |y_k| gamma_{1,1}; beta_1 >= gamma_{1,1}, so the
    two agree to well within 1e-11 relative.
    """
    for lam in lams:
        m = mgqueue.MgModel(lam, law)
        sol = mgqueue.solve_stage_moments(m, order=8)
        assert sol.converged
        w = sol.weights
        gamma = law.gamma_table.gammas(1, np.arange(1, len(w) + 1)).tolist()
        mean = math.fsum(wj * gj for wj, gj in zip(w, gamma))
        assert mean == pytest.approx(sol.beta1, rel=1e-11, abs=0.0)


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
    for bad in (0, 2.5, math.nan, 2.0):
        with pytest.raises(ValueError):
            mgqueue.stage_count_pmf(sol, m, bad)
    assert mgqueue.stage_count_pmf(sol, m, np.int64(2)) == pmf[1]
    broken = dataclasses.replace(sol, converged=False)
    with pytest.raises(UnconvergedError):
        mgqueue.stage_count_pmf(broken, m, 1)


@pytest.mark.parametrize("lam,mu", [(0.1, 1.0), (1.0, 2.5), (0.5, 1.0),
                                    (0.7, 1.0), (1.2, 2.0)])
def test_closed_form_stage_count_pmf_matches_the_quadrature(lam, mu):
    """The exponential closed form against the quadrature path, which the
    same law takes when given as callables with an exact tail.

    E[K] = 1 + s holds to the accuracy of the moment solution itself, about
    1e-13 at these loads; at rho = 0.75 the default ladder (tol 1e-8) stops
    with s off by 2e-11.
    """
    m = model(lam, mu)
    as_callables = mgqueue.MgModel(lam, ServiceDistribution.from_callables(
        pdf=lambda y: mu * np.exp(-mu * np.asarray(y, dtype=float)),
        cdf=lambda y: -np.expm1(-mu * np.asarray(y, dtype=float)),
        sf=lambda y: np.exp(-mu * np.asarray(y, dtype=float)),
        name="exp-callables"))
    sol = mgqueue.solve_stage_moments(m)
    for k in range(1, 41):
        assert abs(mgqueue.stage_count_pmf(sol, m, k)
                   - mgqueue.stage_count_pmf(sol, as_callables, k)) <= 1e-12, k
    pmf = [mgqueue.stage_count_pmf(sol, m, k) for k in range(1, 501)]
    assert abs(math.fsum(pmf) - 1.0) <= 1e-13
    mean = math.fsum(k * p for k, p in enumerate(pmf, start=1))
    assert abs(mean - (1.0 + sol.s)) <= 1e-12


def test_closed_form_stage_count_pmf_survives_large_counts():
    m = model(0.7, 1.0)
    sol = mgqueue.solve_stage_moments(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = mgqueue.stage_count_pmf(sol, m, 2000)
    assert math.isfinite(p) and p >= 0.0


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


def quadpack_stage_count_pmf(sol, m, k):
    """The general-law stage_count_pmf that the batched engine replaced,
    kept as its reference: scipy.integrate.quad over the same range with the
    same split point, on the series density one node at a time."""
    lam = m.lam
    y_max = support_end(m.service, tail_support(m.service, 1e-10))
    density = mgqueue._density_series(sol, m)

    if k == 1:
        def weight(t):
            return (1.0 + lam * t) * math.exp(-lam * t)
    else:
        log_fact = math.lgamma(k + 1)

        def weight(t):
            if t <= 0.0:
                return 0.0
            return math.exp(k * math.log(lam * t) - lam * t - log_fact)

    def integrand(t):
        return weight(t) * float(density(np.array([t]))[0])

    points = [min(y_max * 0.999, k / lam)] if k >= 2 else None
    val, _err = integrate.quad(integrand, 0.0, y_max, epsabs=1e-10,
                               limit=400, points=points)
    return val


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.4])
@pytest.mark.parametrize("law", [erlang2(), uniform_law(0.5),
                                 hyperexponential(True)],
                         ids=["erlang2", "uniform", "hyperexp-sf"])
def test_general_stage_count_pmf_matches_the_quadpack_reference(law, lam):
    m = mgqueue.MgModel(lam, law)
    sol = mgqueue.solve_stage_moments(m, order=4)
    for k in range(1, 11):
        assert abs(mgqueue.stage_count_pmf(sol, m, k)
                   - quadpack_stage_count_pmf(sol, m, k)) <= 1e-12, k


def test_a_scalar_only_law_gets_its_density_and_pmf():
    """A law written with math, whose pdf and cdf reject arrays, is called
    one node at a time by the density and the pmf."""
    m = mgqueue.MgModel(lam=0.4, service=wrapped_exponential())
    sol = mgqueue.solve_stage_moments(m, order=4)
    grid = np.linspace(0.0, 2.0, 41)
    array = mgqueue.stationary_density(sol, m, grid)
    scalar = [mgqueue.stationary_density(sol, m, t) for t in grid.tolist()]
    assert all(type(f) is float for f in scalar)
    assert array.tolist() == scalar
    # The same series on the exponential law's own pdf and tail.
    exponential = model(lam=0.4)
    np.testing.assert_allclose(
        array, mgqueue.stationary_density(sol, exponential, grid),
        rtol=1e-13, atol=0.0)
    for k in (1, 2, 3):
        assert abs(mgqueue.stage_count_pmf(sol, m, k)
                   - mgqueue.stage_count_pmf(sol, exponential, k)) <= 1e-12


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
