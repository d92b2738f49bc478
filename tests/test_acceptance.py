"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with -s (or read the failure output) to see the per-criterion lines.
Criterion 5 carries a deliberately failing clause; see its docstring.
"""

import math
import time

import numpy as np

from gatedq import giqueue, linsys, mgqueue, simulator
from gatedq.distributions import ArrivalDistribution, ServiceDistribution

LAM = 1.0
MU = 2.5
Y_MAX = -math.log(1e-10) / MU


def report(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def mg_model(lam=LAM, mu=MU):
    return mgqueue.MgModel(lam=lam, service=ServiceDistribution.exponential(mu))


def gi_model(rho, mu=1.0):
    return giqueue.GiModel(ArrivalDistribution.poisson(rho * mu), mu)


def bin_averaged(fn, edges, subpoints=8):
    """Average an analytic density over each histogram bin."""
    out = np.empty(len(edges) - 1)
    for b in range(len(edges) - 1):
        ts = np.linspace(edges[b], edges[b + 1], subpoints + 2)[1:-1]
        out[b] = np.mean([fn(t) for t in ts])
    return out


def test_criterion_1_kernel_normalization():
    from scipy import integrate
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.0, 0.1, 1.0, 5.0, 20.0):
        val, _ = integrate.quad(
            lambda y: mgqueue.kernel_density(mg_model(), x, y), 0.0, 40.0,
            limit=200)
        worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    assert report(1, ok, f"kernel rows integrate to one "
                  f"(worst defect {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_density_figure():
    from scipy import integrate
    # The figure's system is the fixed 10x10 truncation; its half-order rung
    # gap is ~2e-5, so a 1e-4 tolerance is the honest convergence statement
    # at this size.  The full ladder is also required to converge.
    fixed = mgqueue.solve_stage_moments(mg_model(), order=10, n_max=10,
                                        tol=1e-4)
    ladder = mgqueue.solve_stage_moments(mg_model(), order=10)
    mass, _ = integrate.quad(
        lambda t: mgqueue.stationary_density(fixed, mg_model(), t),
        0.0, 14.0, limit=200)
    grid = np.linspace(0.0, Y_MAX, 2048)
    vals = np.array([mgqueue.stationary_density(fixed, mg_model(), t)
                     for t in grid])
    ok = (fixed.converged and ladder.converged
          and abs(mass - 1.0) <= 1e-6 and vals.min() >= -1e-10)
    assert report(2, ok, f"10x10 stage-length density: solver converged, "
                  f"mass defect {abs(mass - 1.0):.2e}, "
                  f"min f = {vals.min():.2e} on 2048 points")


def test_criterion_3_density_oracle_triangle():
    t0 = time.perf_counter()
    m = mg_model()
    sol = mgqueue.solve_stage_moments(m, order=10)
    fp = mgqueue.fixed_point_density(m, n_points=2048, y_max=Y_MAX)
    series_on_grid = np.array(
        [mgqueue.stationary_density(sol, m, t) for t in fp.y])
    gap_fp = np.abs(series_on_grid - fp.f).max()

    trace = simulator.simulate_mg(LAM, ServiceDistribution.exponential(MU),
                                  100000, seed=11, burn_in=1000)
    stats = simulator.empirical_stats(trace, bins=64, y_max=Y_MAX,
                                      column="active")
    series_bins = bin_averaged(
        lambda t: mgqueue.stationary_density(sol, m, t), stats.bin_edges)
    fp_bins = bin_averaged(fp.interpolate, stats.bin_edges)
    gap_series_hist = np.abs(series_bins - stats.histogram).max()
    gap_fp_hist = np.abs(fp_bins - stats.histogram).max()
    elapsed = time.perf_counter() - t0
    ok = (fp.converged and gap_fp <= 1e-3
          and gap_series_hist <= 0.05 and gap_fp_hist <= 0.05
          and elapsed < 30.0)
    assert report(3, ok, f"series vs grid {gap_fp:.2e} (<=1e-3), "
                  f"series vs sim {gap_series_hist:.3f}, "
                  f"grid vs sim {gap_fp_hist:.3f} (<=0.05), {elapsed:.1f}s")


def test_criterion_4_mean_stage_length_sweep():
    rels = {}
    for rho in (0.1, 0.2, 0.3, 0.4, 0.5, 0.9):
        lam = rho * MU
        sol = mgqueue.solve_stage_moments(mg_model(lam=lam), order=10,
                                          n_max=10, tol=1e-3)
        trace = simulator.simulate_mg(lam, ServiceDistribution.exponential(MU),
                                      10000, seed=42, burn_in=1000)
        sim_mean = float(trace.m[trace.burn_in:].mean())
        rels[rho] = abs(sol.beta1 - sim_mean) / sim_mean
    light_ok = all(rels[r] <= 0.05 for r in (0.1, 0.2, 0.3, 0.4, 0.5))
    heavy_ok = rels[0.9] > 0.05
    ok = light_ok and heavy_ok
    shown = ", ".join(f"{r}: {rels[r] * 100:.1f}%" for r in sorted(rels))
    assert report(4, ok, f"mean stage length vs simulation ({shown}); "
                  f"light traffic within 5%, rho=0.9 visibly off")


def test_criterion_5_mg_dominance_window():
    rep75 = linsys.dominance_report(
        mgqueue.moment_oracle(mg_model(lam=0.75, mu=1.0)), order=12)
    rep80 = linsys.dominance_report(
        mgqueue.moment_oracle(mg_model(lam=0.80, mu=1.0)), order=12)
    ok = (rep75.satisfied and not rep75.marginal
          and ((not rep80.satisfied) or rep80.marginal))
    assert report(5, ok, f"stage-moment system dominance: rho=0.75 "
                  f"certified (max sigma {rep75.sigma.max():.3f}), rho=0.80 "
                  f"marginal-or-failed (max sigma {rep80.sigma.max():.3f})")


def test_criterion_5_gi_dominance_threshold():
    """EXPECTED FAIL: the claimed dominance region does not hold.

    The requirement asserts the factorial-moment system with Poisson
    arrivals is diagonally dominant at rho = 0.45.  Direct evaluation of
    the assembled rows refutes this: sigma_2 = 1.33 > 1.  The plain rows
    stay dominant only up to rho ~ 0.3404, where sigma_2 crosses 1; the
    closed-form sufficient region (analytic_region), where
    i * rho^{i-1} (zeta(i) + rho zeta(i+1)) < 1 for every row i >= 2, ends
    earlier, near rho = 0.256.  The solver still converges there; only
    the dominance certificate is unavailable.  This test is kept red on
    purpose rather than weakening the check it encodes.
    """
    rep = linsys.dominance_report(
        giqueue.factorial_oracle(gi_model(0.45)), order=12)
    detail = (f"factorial-moment dominance at rho=0.45: satisfied="
              f"{rep.satisfied}, sigma_2={rep.sigma[1]:.3f} (claim needs "
              f"all sigma < 1; fails for any rho above ~0.3404)")
    assert report("5-gi", rep.satisfied, detail)


def test_criterion_6_pmf_figure():
    t0 = time.perf_counter()
    m = gi_model(0.85)
    sol = giqueue.solve_factorial_moments(m, order=25, n_max=100, tol=1e-3)
    mass = sum(giqueue.stationary_pmf(sol, m, i) for i in range(1, 2001))
    trace = simulator.simulate_gi(m.arrivals, m.mu, 100000, seed=7,
                                  burn_in=1000)
    stats = simulator.empirical_stats(trace)
    analytic = {int(i): giqueue.stationary_pmf(sol, m, int(i))
                for i in stats.k_values}
    seen = sum(analytic.values())
    tv = 0.5 * (sum(abs(analytic[int(i)] - p)
                    for i, p in zip(stats.k_values, stats.k_pmf))
                + (mass - seen))
    elapsed = time.perf_counter() - t0
    ok = (sol.converged and abs(mass - 1.0) <= 1e-6 and tv <= 0.02
          and elapsed < 60.0)
    assert report(6, ok, f"customers-per-stage pmf at rho=0.85: mass defect "
                  f"{abs(mass - 1.0):.2e}, TV vs simulation {tv:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_7_truncation_cauchy_gap():
    oracle = mgqueue.moment_oracle(mg_model())
    x16 = linsys.solve(linsys.truncate(oracle, 16)).x
    x32 = linsys.solve(linsys.truncate(oracle, 32)).x
    gap = float(np.abs(x32[:16] - x16).max())
    ok = gap <= 1e-8
    assert report(7, ok, f"doubling the truncation moves no unknown by more "
                  f"than {gap:.2e} (<= 1e-8)")


def test_criterion_8_conditional_drift():
    m = gi_model(0.5)
    trace = simulator.simulate_gi(m.arrivals, m.mu, 1000000, seed=99,
                                  burn_in=1000)
    rep = simulator.drift_check(trace, m, min_visits=500)
    z = np.abs(rep.mean_next - rep.reference) / rep.se
    below_bound = np.all(rep.mean_next <= rep.bound + 3.0 * rep.se)
    ok = (len(rep.states) >= 5 and rep.violations == []
          and float(z.max()) <= 3.0 and bool(below_bound))
    assert report(8, ok, f"conditional next-stage means over states "
                  f"{rep.states.min()}..{rep.states.max()}: max |z| = "
                  f"{z.max():.2f} (<= 3), bound violations {rep.violations}")


def test_criterion_9_structural_identities():
    gaps = {}
    for rho, kwargs in ((0.2, {}), (0.5, {}),
                        (0.85, {"order": 25, "n_max": 100, "tol": 1e-3})):
        m = gi_model(rho)
        sol = giqueue.solve_factorial_moments(m, **kwargs)
        assert sol.converged
        gaps[rho] = abs(giqueue.pgf(sol, m, 1.0) - 1.0)
        assert abs(giqueue.pgf(sol, m, 0.0)) <= 1e-8
    pgf_ok = all(g <= 1e-6 for g in gaps.values())

    m25 = mg_model(lam=0.25, mu=1.0)
    a = mgqueue.solve_stage_moments(m25, order=16, assembly="transformed")
    b = mgqueue.solve_stage_moments(m25, order=12, assembly="general")
    two_path = max(abs(a.beta[i] / b.beta[i] - 1.0) for i in range(2, 9))
    ok = pgf_ok and two_path <= 1e-6
    assert report(9, ok, f"pgf(1) defects {max(gaps.values()):.2e} (<= 1e-6), "
                  f"pgf(0) exact, two-assembly moment agreement "
                  f"{two_path:.2e} (<= 1e-6 relative)")
