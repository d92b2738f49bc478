"""Command-line interface: artifacts, exit codes, config handling."""

import argparse
import errno
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedq import cli, distributions, giqueue, linsys, mgqueue, simulator
from gatedq.cli import main, write_csv
from gatedq.distributions import ArrivalDistribution, ServiceDistribution
from gatedq.errors import OutOfRegimeError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def stderr_code(capsys):
    err = capsys.readouterr().err.strip()
    return json.loads(err)["error"]["code"]


# ----------------------------------------------------------------- success ----

def test_analyze_mg_writes_canonical_json(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["analyze-mg", "--lambda", "1.0", "--mu", "2.5",
                 "--out", out]) == 0
    path = os.path.join(out, "analyze-mg.json")
    data = read_json(path)
    assert data["converged"] is True
    assert data["n_used"] == 40
    assert sorted(int(i) for i in data["beta"]) == list(range(2, 41))
    assert data["EK"] == 1.0 + data["s"]
    # The file is byte-identical to its own canonical re-serialization.
    with open(path) as fh:
        raw = fh.read()
    assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_analyze_gi_writes_report_and_pmf(tmp_path):
    out = str(tmp_path)
    assert main(["analyze-gi", "--rho", "0.5", "--out", out]) == 0
    data = read_json(os.path.join(out, "analyze-gi.json"))
    assert data["converged"] is True
    header, rows = read_csv(os.path.join(out, "analyze-gi-pmf.csv"))
    assert header == ["i", "pi"]
    assert rows[0][0] == "1"
    pis = [float(r[1]) for r in rows]
    assert abs(sum(pis) - 1.0) < 1e-9
    assert len(rows) >= 10


def test_analyze_gi_writes_no_heuristic_flag(tmp_path):
    # Only the M/G report and dominance.json carry the flag.
    out = str(tmp_path)
    for argv in (["--rho", "0.2"], ["--rho", "0.45"],
                 ["--deterministic", "2.0", "--mu", "1.0"]):
        assert main(["analyze-gi", *argv, "--out", out]) == 0
        assert "heuristic" not in read_json(os.path.join(out,
                                                         "analyze-gi.json"))


def test_analyze_gi_pmf_stops_at_the_solution_mass(tmp_path):
    """A solution whose mass misses 1 by its defect must not pad the CSV.

    Here the defect is about 2e-7, so stopping at 1 - cum < 1e-10 never
    happened and 100 000 rows, nearly all zero, were written.
    """
    out = str(tmp_path)
    argv = ["analyze-gi", "--rho", "0.85", "--order", "25", "--n-max", "100",
            "--tol", "1e-3"]
    assert main(argv + ["--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "analyze-gi-pmf.csv"))
    assert len(rows) < 1000
    model = giqueue.GiModel(ArrivalDistribution.poisson(0.85), 1.0)
    sol = giqueue.solve_factorial_moments(model, order=25, n_max=100, tol=1e-3)
    mass = giqueue.pmf_total_mass(sol, model)
    assert abs(sum(float(r[1]) for r in rows) - mass) < 1e-10


def test_simulate_trace_round_trips(tmp_path):
    out = str(tmp_path)
    assert main(["simulate", "--model", "mg", "--lambda", "1.0", "--mu", "2.5",
                 "--stages", "300", "--burn-in", "100", "--seed", "3",
                 "--out", out]) == 0
    trace_path = os.path.join(out, "trace-mg.csv")
    header, rows = read_csv(trace_path)
    assert header == ["n", "y", "k", "waiting_phase", "m"]
    assert len(rows) == 300
    parsed = [(int(r[0]), float(r[1]), int(r[2]), r[3] == "true", float(r[4]))
              for r in rows]
    rewritten = os.path.join(out, "again.csv")
    write_csv(rewritten, header, zip(*parsed))
    assert open(rewritten).read() == open(trace_path).read()
    stats = read_json(os.path.join(out, "stats-mg.json"))
    assert stats["n_used"] == 200


def test_simulate_gi_has_no_waiting_phases(tmp_path):
    out = str(tmp_path)
    assert main(["simulate", "--model", "gi", "--rho", "0.5",
                 "--stages", "300", "--burn-in", "50", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "trace-gi.csv"))
    assert all(r[3] == "false" for r in rows)


def test_dominance_reports(tmp_path):
    out = str(tmp_path)
    assert main(["dominance", "--system", "mg", "--lambda", "0.75",
                 "--mu", "1.0", "--order", "12", "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["satisfied"] is True and data["marginal"] is False

    assert main(["dominance", "--system", "mg", "--lambda", "0.8",
                 "--mu", "1.0", "--order", "12", "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["satisfied"] is True and data["marginal"] is True

    assert main(["dominance", "--system", "gi", "--rho", "0.45",
                 "--order", "12", "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["satisfied"] is False


def test_a_dominance_report_that_certifies_nothing_is_flagged(tmp_path):
    # The general M/G system states every row sum unbounded: its exact
    # report is not satisfied, and is no certificate.
    out = str(tmp_path)
    assert main(["dominance", "--system", "mg", "--lambda", "0.1", "--mu",
                 "2.5", "--assembly", "general", "--order", "8",
                 "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["satisfied"] is False and data["tail_is_analytic"] is True
    assert data["heuristic"] is True
    # A failed probe is flagged too; a certified one carries no flag.
    assert main(["dominance", "--system", "gi", "--rho", "0.45",
                 "--order", "12", "--out", out]) == 0
    assert read_json(os.path.join(out, "dominance.json"))["heuristic"] is True
    assert main(["dominance", "--system", "mg", "--lambda", "0.5", "--mu",
                 "1.0", "--order", "12", "--out", out]) == 0
    assert "heuristic" not in read_json(os.path.join(out, "dominance.json"))


@pytest.mark.parametrize("order", ["80", "120"])
def test_exponential_min_moments_below_double_range_keep_the_general_lead(
        order, tmp_path):
    # gamma_{i,1} = i!/mu^i overflows to inf from i = 70 and lam^i
    # underflows to 0.0 from i = 99, but the general assembly's lead
    # i!/(lam^i gamma_{i,1}) = (mu/lam)^i stays finite, so the pinned
    # ladder converges to the transformed system's E[K].
    ek = {}
    for assembly in ("general", "transformed"):
        out = str(tmp_path / assembly)
        assert main(["analyze-mg", "--lambda", "0.0005", "--mu", "0.001",
                     "--assembly", assembly, "--order", order, "--n-max",
                     order, "--out", out]) == 0
        data = read_json(os.path.join(out, "analyze-mg.json"))
        assert data["converged"] is True
        ek[assembly] = data["EK"]
    assert ek["general"] == pytest.approx(ek["transformed"], rel=1e-12)
    # The report of the same system reads the diagonal of every row.
    out = str(tmp_path)
    assert main(["dominance", "--system", "mg", "--lambda", "0.0005", "--mu",
                 "0.001", "--assembly", "general", "--order", "60",
                 "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["heuristic"] is True and data["sigma"] == [None] * 60


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_general_mg_dominance_is_stated_unbounded_in_plain_json(
        tmp_path, capsys):
    out = str(tmp_path)
    assert main(["dominance", "--system", "mg", "--lambda", "0.5", "--mu",
                 "1.0", "--order", "8", "--assembly", "general",
                 "--out", out]) == 0
    path = os.path.join(out, "dominance.json")
    assert capsys.readouterr().out.splitlines() == [
        path, "satisfied=False marginal=False max_sigma=inf worst_row=1"]
    with open(path) as fh:
        data = json.loads(fh.read(), parse_constant=refuse_constant)
    assert data["sigma"] == [None] * 8 and data["heuristic"] is True
    assert data["max_sigma"] is None and data["max_offdiag_row_sum"] is None
    assert data["tail_is_analytic"] is True and data["tail_cutoff"] is None
    assert data["satisfied"] is False and data["row_sums_bounded"] is False
    # The analyze-mg report of a general solve nests the same kind of report.
    assert main(["analyze-mg", "--lambda", "1.0", "--mu", "2.5", "--assembly",
                 "general", "--order", "8", "--out", out]) == 0
    with open(os.path.join(out, "analyze-mg.json")) as fh:
        nested = json.loads(fh.read(), parse_constant=refuse_constant)
    assert nested["heuristic"] is True
    assert set(nested["dominance"]["sigma"]) == {None}


def test_dominance_prints_one_line_with_the_worst_row(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["dominance", "--system", "gi", "--rho", "0.45",
                 "--order", "12", "--out", out]) == 0
    data = read_json(os.path.join(out, "dominance.json"))
    assert capsys.readouterr().out.splitlines() == [
        os.path.join(out, "dominance.json"),
        f"satisfied=False marginal=False max_sigma={data['max_sigma']!r} "
        f"worst_row={data['worst_row']}"]


def test_deterministic_reports_are_exact(tmp_path):
    for spacing, mu in (("2.0", "1.0"), ("1.3888", "1.2"), ("0.7", "1.0")):
        law = ["--deterministic", spacing, "--mu", mu, "--out", str(tmp_path)]
        assert main(["analyze-gi", *law]) == 0
        assert main(["dominance", "--system", "gi", *law]) == 0
        data = read_json(os.path.join(tmp_path, "dominance.json"))
        assert data["tail_is_analytic"] is True and data["heuristic"] is True
        assert data["col_sums_finite"] is True
        assert data["diag_sums_summable"] is False
        assert data["tail_cutoff"] is None and data["notes"] == []
    # Past light traffic (bhat_1 = 0.6065), assembled by override, the rows
    # are exact too, and column 1's sum diverges.
    assert main(["dominance", "--system", "gi", "--deterministic", "0.5",
                 "--mu", "1.0", "--override", "--out", str(tmp_path)]) == 0
    data = read_json(os.path.join(tmp_path, "dominance.json"))
    assert data["tail_is_analytic"] is True and data["heuristic"] is True
    assert data["tail_cutoff"] is None and data["notes"] == []
    assert data["max_sigma"] == 2058893.0955006548
    assert data["col_sums_finite"] is False


def test_a_deterministic_report_with_bhat_zero_has_zero_sigma(tmp_path,
                                                             capsys):
    # Spacing 1e300 rounds every bhat_k = exp(-k mu c) to 0, so each
    # off-diagonal row sum is exactly 0; no warning may escape on the way.
    out = str(tmp_path)
    assert main(["dominance", "--system", "gi", "--deterministic", "1e300",
                 "--mu", "1.0", "--out", out]) == 0
    assert capsys.readouterr().err == ""
    data = read_json(os.path.join(out, "dominance.json"))
    assert data["sigma"] == [0.0] * 25 and data["max_offdiag_row_sum"] == 0.0
    assert data["tail_is_analytic"] is True


@pytest.mark.parametrize("argv,kept", [
    # i! leaves double range at i = 171: these ladders converge with 176
    # and 200 unknowns and used to die with an OverflowError.
    (["--lambda", "0.8", "--mu", "1.0", "--order", "22"], 170),
    (["--lambda", "0.8", "--mu", "1.0", "--order", "100", "--n-max", "200"],
     170),
    # Here i! y_i / lam^i comes out infinite from i = 151 on without an
    # error, and used to be written as Infinity, which is not JSON.
    (["--lambda", "0.4", "--mu", "0.5", "--order", "20", "--n-max", "160"],
     150),
])
def test_analyze_mg_leaves_out_beta_beyond_double_range(argv, kept, tmp_path):
    path = tmp_path / "analyze-mg.json"
    assert main(["analyze-mg"] + argv + ["--out", str(tmp_path)]) == 0
    assert "Infinity" not in path.read_text()
    data = read_json(path)
    assert data["converged"] is True
    assert sorted(int(i) for i in data["beta"]) == list(range(2, kept + 1))
    assert len(data["y"]) == data["n_used"] - 1
    assert data["notes"] == [
        f"beta_i outside double range, left out of beta, at indices "
        f"{list(range(kept + 1, data['n_used'] + 1))}"]


def test_compare_pmf_keeps_analytic_column_seed_free(tmp_path):
    args = ["compare", "--figure", "pmf", "--rho", "0.5",
            "--stages", "3000", "--burn-in", "500"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--seed", "1", "--out", d1]) == 0
    assert main(args + ["--seed", "2", "--out", d2]) == 0
    h1, r1 = read_csv(os.path.join(d1, "compare-pmf.csv"))
    h2, r2 = read_csv(os.path.join(d2, "compare-pmf.csv"))
    assert h1 == h2 == ["i", "analytic", "simulated", "se"]
    assert len(r1) >= 3
    a1 = {row[0]: row[1] for row in r1}
    a2 = {row[0]: row[1] for row in r2}
    shared = sorted(set(a1) & set(a2), key=int)
    assert len(shared) >= 3
    assert all(a1[i] == a2[i] for i in shared)
    assert any(x[2] != y[2] for x, y in zip(r1, r2))
    model = giqueue.GiModel(ArrivalDistribution.poisson(0.5), 1.0)
    sol = giqueue.solve_factorial_moments(model, order=25)
    assert all(float(r[1]) == giqueue.stationary_pmf(sol, model, int(r[0]))
               for r in r1)


def test_compare_mean_length_uses_fixed_truncations(tmp_path):
    out = str(tmp_path)
    assert main(["compare", "--figure", "mean-length", "--mu", "2.5",
                 "--rho-grid", "0.2,0.4", "--stages", "2000", "--order", "10",
                 "--seed", "5", "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "compare-mean-length.csv"))
    assert header == ["rho", "analytic", "simulated", "se"]
    assert [r[0] for r in rows] == ["0.2", "0.4"]
    for row in rows:
        rho = float(row[0])
        model = mgqueue.MgModel(lam=rho * 2.5,
                                service=ServiceDistribution.exponential(2.5))
        sol = mgqueue.solve_stage_moments(model, order=10, n_max=10)
        assert float(row[1]) == sol.beta1


def test_compare_moments_and_density_smoke(tmp_path):
    out = str(tmp_path)
    assert main(["compare", "--figure", "moments", "--lambda", "1.0",
                 "--mu", "2.5", "--order", "6", "--stages", "3000",
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "compare-moments.csv"))
    assert [r[0] for r in rows] == [str(i) for i in range(2, 8)]
    assert all(np.isfinite(float(v)) for r in rows for v in r[1:])

    assert main(["compare", "--figure", "density", "--lambda", "1.0",
                 "--mu", "2.5", "--stages", "3000", "--bins", "16",
                 "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "compare-density.csv"))
    assert len(rows) == 16
    centers = [float(r[0]) for r in rows]
    assert centers == sorted(centers)
    model = mgqueue.MgModel(lam=1.0, service=ServiceDistribution.exponential(2.5))
    sol = mgqueue.solve_stage_moments(model, order=10)
    analytic = mgqueue.stationary_density(sol, model, np.array(centers))
    assert [float(r[1]) for r in rows] == analytic.tolist()


# ------------------------------------------------------------ config files ----

def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5}))
    out = str(tmp_path)
    # The flag alone would be out of regime; the config rescues the run.
    assert main(["analyze-mg", "--lambda", "3.0", "--mu", "1.0",
                 "--config", str(cfg), "--out", out]) == 0
    data = read_json(os.path.join(out, "analyze-mg.json"))
    assert data["lam"] == 0.5


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    envdir = tmp_path / "env"
    monkeypatch.setenv("GATEDQ_OUTPUT_DIR", str(envdir))
    assert main(["dominance", "--system", "mg", "--lambda", "0.4",
                 "--mu", "1.0", "--order", "8"]) == 0
    assert (envdir / "dominance.json").exists()
    # An explicit --out still wins.
    flagdir = tmp_path / "flag"
    assert main(["dominance", "--system", "mg", "--lambda", "0.4",
                 "--mu", "1.0", "--order", "8", "--out", str(flagdir)]) == 0
    assert (flagdir / "dominance.json").exists()
    assert not (envdir / "dominance.json.tmp").exists()


# ----------------------------------------------------------- parser reuse ----

def _run_captured(argv, out, capsys):
    """Exit code, stdout with the output directory masked, and artifacts."""
    code = main(argv + ["--out", str(out)])
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
             if out.exists() else {})
    return code, stdout, files


def test_parser_reuse_leaves_no_state_between_calls(tmp_path, capsys):
    parser = cli._build_parser()
    first = ["analyze-gi", "--deterministic", "2.0", "--mu", "1.0"]
    before = _run_captured(first, tmp_path / "first", capsys)
    assert before[0] == 0 and set(before[2]) == {"analyze-gi.json",
                                                 "analyze-gi-pmf.csv"}
    # A flag argparse itself rejects, then a failed requirement.
    assert main(["analyze-mg", "--lambda", "0.4", "--mu", "1.0",
                 "--order", "four"]) == 1
    assert stderr_code(capsys) == "config"
    assert main(["analyze-mg", "--mu", "2.5"]) == 1
    assert stderr_code(capsys) == "config"
    # The config file rescues an out-of-regime rate; the same flags without
    # it are refused again, so the override did not stick to the parser.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 0.5}))
    over = tmp_path / "override"
    assert main(["analyze-mg", "--lambda", "3.0", "--mu", "1.0",
                 "--config", str(cfg), "--out", str(over)]) == 0
    assert read_json(over / "analyze-mg.json")["lam"] == 0.5
    assert main(["analyze-mg", "--lambda", "3.0", "--mu", "1.0",
                 "--out", str(tmp_path / "regime")]) == 2
    assert stderr_code(capsys) == "out_of_regime"
    assert main(["analyze-gi", "--rho", "0.9", "--order", "4", "--n-max", "8",
                 "--tol", "1e-13", "--out", str(tmp_path / "unconverged")]) == 3
    assert stderr_code(capsys) == "unconverged"
    assert _run_captured(first, tmp_path / "again", capsys) == before
    assert cli._build_parser() is parser


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_importing_the_cli_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c", "import gatedq.cli as c; "
         "print(c._build_parser.cache_info().currsize)"],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


# -------------------------------------------------------------- exit codes ----

def test_out_of_regime_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["analyze-mg", "--lambda", "3.0", "--mu", "2.5",
                 "--out", out]) == 2
    assert stderr_code(capsys) == "out_of_regime"
    assert not os.path.exists(os.path.join(out, "analyze-mg.json"))


def test_unrepresentable_model_exits_2(tmp_path, capsys):
    # rho = 5e-301: the row scaling rho^(-i/2) overflows a double.
    out = str(tmp_path)
    assert main(["analyze-mg", "--lambda", "0.5", "--mu", "1e300",
                 "--out", out]) == 2
    assert stderr_code(capsys) == "out_of_regime"
    assert not os.listdir(out)


def test_singular_truncation_exits_2_without_writing(tmp_path, capsys):
    # bhat(1) = exp(-0.5) > 1/2 forced through --override: the order-50 rung
    # is numerically singular, which used to escape main as a traceback.
    out = str(tmp_path)
    assert main(["analyze-gi", "--deterministic", "0.5", "--mu", "1.0",
                 "--override", "--out", out]) == 2
    assert stderr_code(capsys) == "out_of_regime"
    assert not os.listdir(out)


def test_zero_diagonal_exits_2_without_writing(tmp_path, capsys):
    # At rho = 1 row 1's diagonal -(1 - rho) of the Poisson system is 0.
    out = str(tmp_path)
    assert main(["dominance", "--system", "gi", "--rho", "1.0", "--override",
                 "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "out_of_regime"
    assert "zero diagonal at row 1" in err["message"]
    assert not os.listdir(out)


def _slow_tail_law():
    """A law whose tail 1/log(e + y) is still above 1e-14 at y = 2^120, so
    no min moment of it can be computed."""
    def sf(y):
        return 1.0 / np.log(np.e + np.asarray(y, dtype=float))

    return ServiceDistribution.from_callables(
        lambda y: sf(y) ** 2 / (np.e + np.asarray(y, dtype=float)),
        lambda y: 1.0 - sf(y), sf=sf, name="slow-tail")


# Each way the numerics decline a model, with the class it raises.
_DECLINED = [
    (linsys.AssemblyError, lambda: mgqueue.solve_stage_moments(
        mgqueue.MgModel(0.5, ServiceDistribution.exponential(1e300)))),
    (linsys.SingularSystemError, lambda: linsys.solve(
        linsys.TruncatedSystem(n=2, a=np.zeros((2, 2)), b=np.ones(2)))),
    (linsys.ZeroDiagonalError, lambda: linsys.dominance_report(
        giqueue.factorial_oracle(
            giqueue.GiModel(ArrivalDistribution.poisson(1.0), 1.0),
            override=True), 2)),
    (distributions.DivergentMomentError,
     lambda: distributions.tail_support(_slow_tail_law(), 1e-14)),
    # Row 30's alternating binomial sum cannot be rounded to 1e-6.
    (OutOfRegimeError, lambda: giqueue.transition_probability(
        giqueue.GiModel(ArrivalDistribution.poisson(0.3), 1.0), 30, 1)),
]


@pytest.mark.parametrize("cls,decline", _DECLINED,
                         ids=[cls.__name__ for cls, _ in _DECLINED])
def test_every_declined_model_is_out_of_regime(cls, decline):
    with pytest.raises(OutOfRegimeError) as caught:
        decline()
    assert type(caught.value) is cls
    assert isinstance(caught.value, ValueError)


def test_a_first_rung_divergent_moment_exits_2(tmp_path, capsys,
                                              monkeypatch):
    # A law no min moment of which can be computed fails on the ladder's
    # first rung, where stop_on does not apply.
    monkeypatch.setattr(cli.ServiceDistribution, "exponential",
                        lambda mu: _slow_tail_law())
    out = str(tmp_path)
    assert main(["analyze-mg", "--lambda", "0.5", "--mu", "1.0",
                 "--out", out]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "out_of_regime"
    assert "slow-tail" in err["message"]
    assert not os.listdir(out)


@pytest.mark.parametrize("command", [
    # Deep rows whose sigma = off-diagonal sum / diagonal overflows.
    "dominance --system gi --rho 2.0 --override --order 2000",
    # ... and rows whose oracle terms divide inf by inf.
    "dominance --system gi --rho 40 --override --order 500",
    # Loads too heavy to simulate: numpy refuses the Poisson mean of the
    # first stage's arrivals; a stage of about 1e12 customers needs too many
    # service times; a walk of 1e-300 gaps would need about 1e300 of them to
    # pass one service time.
    "simulate --model mg --lambda 1e30 --mu 1.0 --stages 2000",
    "simulate --model mg --lambda 1e12 --mu 1.0 --stages 2000",
    "simulate --model gi --deterministic 1e-300 --mu 1.0 --stages 2000",
])
def test_a_refused_report_writes_only_its_json_error_to_stderr(command,
                                                                tmp_path):
    env = _src_env()
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-m", "gatedq.cli"] + command.split()
        + ["--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert json.loads(lines[0])["error"]["code"] == "out_of_regime"
    assert not os.listdir(tmp_path)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("command", [
    # The Poisson rate squared leaves double range.
    "analyze-gi --rho 1e-200",
    "analyze-gi --arrival-rate 1e-300 --mu 1.0",
    "dominance --system gi --rho 1e-200",
    "simulate --model gi --rho 1e-200 --stages 2000",
    "compare --figure pmf --rho 1e-200 --stages 2000",
    "analyze-gi --rho 0.3 --mu 1e300",
    # The deterministic spacing squared overflows.
    "analyze-gi --deterministic 1e300 --mu 1.0",
    "simulate --model gi --deterministic 1e300 --mu 1.0 --stages 2000",
    # bhat(1) rounds to 1.
    "analyze-gi --deterministic 1e-300 --mu 1.0 --override",
    "dominance --system gi --deterministic 1e-300 --mu 1.0 --override",
])
def test_extreme_gi_rates_exit_cleanly(command, tmp_path, capsys):
    """Each run either writes finite, canonical artifacts or exits 2 with
    nothing written; none ends in a traceback."""
    code = main(command.split() + ["--out", str(tmp_path)])
    assert code in (0, 2)
    if code == 2:
        assert stderr_code(capsys) == "out_of_regime"
        assert not os.listdir(tmp_path)
        return
    written = sorted(tmp_path.iterdir())
    assert written
    for path in written:
        raw = path.read_text()
        if path.suffix == ".json":
            data = json.loads(raw, parse_constant=_reject_constant)
            assert raw == json.dumps(data, sort_keys=True, indent=2) + "\n"
        else:
            _, rows = read_csv(path)
            cells = [c for row in rows for c in row
                     if c not in ("true", "false")]
            assert np.all(np.isfinite(np.array(cells, dtype=float)))


def test_dominance_reports_rows_past_double_range(tmp_path):
    """Deep Poisson rows leave double range on purpose (a(309,309) is -inf
    at rho 0.01): their sigma reads 0, the column sums are not finite, and
    the report is written."""
    assert main(["dominance", "--system", "gi", "--rho", "0.01",
                 "--order", "400", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "dominance.json").read_text()
    data = json.loads(raw, parse_constant=_reject_constant)
    assert data["sigma"][308:] == [0.0] * 92
    assert data["col_sums_finite"] is False
    assert data["satisfied"] is False


@pytest.mark.parametrize("spacing,order,message", [
    # bhat(1) rounds to 1, so no row's entries fall from column to column.
    ("1e-300", "25", "bhat(mu) = 1.0: the deterministic rows do not fall"),
    # bhat(1) = 1 - 1e-10: an exact head would need ~3.9e11 columns.
    ("1e-10", "100", "more than 1048576 entries"),
    # bhat(1) = 0.9048: rows 313-315 have finite sums whose ratio to the
    # diagonal overflows, and rows from 316 on have sums past double range.
    ("0.1", "400", "row 313 has no finite dominance ratio"),
], ids=["bhat-rounds-to-1", "head-past-the-cap", "rows-past-double-range"])
def test_a_deterministic_report_past_its_range_exits_2(spacing, order, message,
                                                       tmp_path, capsys):
    assert main(["dominance", "--system", "gi", "--deterministic", spacing,
                 "--mu", "1.0", "--override", "--order", order,
                 "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["code"] == "out_of_regime"
    assert message in err["message"]
    assert not os.listdir(tmp_path)


def test_a_light_traffic_report_is_finite_past_double_range(tmp_path,
                                                            capsys):
    """bhat_1 = 0.4966: from row 1086 on (1 - bhat_1)^i underflows, and
    a(i, 1) used to read inf there, which refused the report with exit 2.
    Every light-traffic entry is finite, and so is every sigma."""
    assert main(["dominance", "--system", "gi", "--deterministic", "0.7",
                 "--mu", "1.0", "--order", "1100",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    raw = (tmp_path / "dominance.json").read_text()
    data = json.loads(raw, parse_constant=_reject_constant)
    assert len(data["sigma"]) == 1100 and None not in data["sigma"]
    assert data["max_sigma"] is not None and data["row_sums_bounded"] is True
    assert data["diag_sums_summable"] is False
    assert data["col_sums_finite"] is True


@pytest.mark.parametrize("argv", [
    ["--figure", "pmf", "--rho", "0.3", "--stages", "300"],
    ["--figure", "moments", "--lambda", "0.5", "--mu", "1.0",
     "--stages", "300"],
    # The figure's default stages (10 000) against a longer burn-in.
    ["--figure", "mean-length", "--mu", "1.0", "--rho-grid", "0.1",
     "--burn-in", "9950"],
])
def test_compare_too_few_stages_exits_1_before_simulating(argv, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused compare must not simulate")

    monkeypatch.setattr(cli.simulator, "simulate_mg", refuse)
    monkeypatch.setattr(cli.simulator, "simulate_gi", refuse)
    out = tmp_path / "out"
    assert main(["compare"] + argv + ["--out", str(out)]) == 1
    assert stderr_code(capsys) == "config"
    assert not out.exists()


def test_simulate_too_few_stages_exits_1(tmp_path, capsys):
    assert main(["simulate", "--model", "mg", "--lambda", "0.5", "--mu", "1.0",
                 "--stages", "200", "--out", str(tmp_path)]) == 1
    assert stderr_code(capsys) == "config"


def test_unconverged_exits_3_with_diagnostics(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["analyze-gi", "--rho", "0.9", "--order", "4", "--n-max", "8",
                 "--tol", "1e-13", "--out", out]) == 3
    assert stderr_code(capsys) == "unconverged"
    data = read_json(os.path.join(out, "analyze-gi.json"))
    assert data["converged"] is False
    assert not os.path.exists(os.path.join(out, "analyze-gi-pmf.csv"))


@pytest.mark.parametrize("argv", [
    ["--figure", "moments", "--lambda", "0.9", "--mu", "1.0"],
    ["--figure", "density", "--lambda", "0.9", "--mu", "1.0"],
    ["--figure", "pmf", "--rho", "0.9"],
])
def test_unconverged_compare_exits_3_before_simulating(argv, tmp_path, capsys,
                                                       monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an unconverged compare must not simulate")

    monkeypatch.setattr(cli.simulator, "simulate_mg", refuse)
    monkeypatch.setattr(cli.simulator, "simulate_gi", refuse)
    out = str(tmp_path)
    assert main(["compare"] + argv + ["--order", "4", "--tol", "1e-13",
                                      "--stages", "3000", "--out", out]) == 3
    assert stderr_code(capsys) == "unconverged"
    assert not [f for f in os.listdir(out) if f.startswith("compare-")]


@pytest.mark.parametrize("argv", [
    ["analyze-mg", "--lambda", "1.0", "--mu", "-1.0"],
    ["analyze-mg", "--lambda", "1.0", "--mu", "2.5", "--order", "3"],
    ["analyze-mg", "--lambda", "1.0", "--mu", "2.5", "--tol", "1.5"],
    ["analyze-mg", "--mu", "2.5"],
    ["analyze-gi"],
    ["analyze-gi", "--rho", "0.5", "--arrival-rate", "0.5", "--mu", "1.0"],
    ["analyze-gi", "--arrival-rate", "0.5"],
    ["simulate", "--model", "mg", "--mu", "2.5"],
    ["compare", "--figure", "mean-length", "--mu", "2.5",
     "--rho-grid", "0.5,1.5"],
    ["compare", "--figure", "mean-length", "--mu", "2.5", "--rho-grid", "0.0"],
    ["compare", "--figure", "mean-length", "--mu", "1.0", "--rho-grid",
     "0.1,x"],
    ["bogus-subcommand"],
    [],
    ["analyze-mg", "--lambda", "0.5", "--mu", "nan"],
    ["simulate", "--model", "mg", "--lambda", "nan", "--mu", "1.0"],
    ["analyze-mg", "--lambda", "0.5", "--mu", "1.0", "--order", "10",
     "--n-max", "12"],
    ["analyze-gi", "--rho", "0.3", "--n-max", "30"],
    ["analyze-mg", "--lambda", "0.5", "--mu", "inf"],
    ["simulate", "--model", "mg", "--lambda", "inf", "--mu", "1.0",
     "--stages", "2000"],
    ["dominance", "--system", "mg", "--lambda", "0.5", "--mu", "1.0",
     "--order", "12", "--tail-cutoff", "3"],
    ["dominance", "--system", "gi", "--rho", "0.3", "--order", "12",
     "--tail-cutoff", "3"],
    ["simulate", "--model", "mg", "--lambda", "0.5", "--mu", "1.0",
     "--stages", "3000", "--bins", "0"],
    ["compare", "--figure", "density", "--lambda", "0.5", "--mu", "1.0",
     "--stages", "3000", "--bins", "0"],
    # Rates built from flags that each pass alone: rho * mu overflows or
    # underflows, and the mean 1 / rate of a subnormal rate overflows.
    ["analyze-gi", "--rho", "1e200", "--mu", "1e200"],
    ["simulate", "--model", "gi", "--rho", "1e-200", "--mu", "1e-200",
     "--stages", "200", "--burn-in", "0"],
    ["compare", "--figure", "mean-length", "--mu", "5e-324", "--rho-grid",
     "0.2", "--stages", "2000"],
    ["dominance", "--system", "gi", "--arrival-rate", "1e-310", "--mu", "1.0"],
])
def test_config_errors_exit_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)] if argv else argv) == 1
    assert stderr_code(capsys) == "config"
    assert not os.listdir(tmp_path)


def test_bad_config_files_exit_1(tmp_path, capsys):
    out = str(tmp_path)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not-a-flag": 1}))
    assert main(["analyze-mg", "--lambda", "0.4", "--mu", "1.0",
                 "--config", str(cfg), "--out", out]) == 1
    assert stderr_code(capsys) == "config"
    cfg.write_text("[1, 2]")
    assert main(["analyze-mg", "--lambda", "0.4", "--mu", "1.0",
                 "--config", str(cfg), "--out", out]) == 1
    assert main(["analyze-mg", "--lambda", "0.4", "--mu", "1.0",
                 "--config", str(tmp_path / "missing.json"),
                 "--out", out]) == 1


ANALYZE_MG = ["analyze-mg", "--lambda", "0.4", "--mu", "1.0"]
SIMULATE_MG = ["simulate", "--model", "mg", "--lambda", "0.4", "--mu", "1.0",
               "--stages", "2000"]


@pytest.mark.parametrize("argv,overrides", [
    (ANALYZE_MG, {"order": "12"}),
    (ANALYZE_MG, {"order": 12.0}),
    (ANALYZE_MG, {"order": True}),
    (ANALYZE_MG, {"lambda": "0.5"}),
    (ANALYZE_MG, {"lambda": False}),
    (ANALYZE_MG, {"mu": None}),
    (ANALYZE_MG, {"assembly": "bogus"}),
    (ANALYZE_MG, {"assembly": 3}),
    (ANALYZE_MG, {"out": 7}),
    (ANALYZE_MG, {"subcommand": "analyze-gi"}),
    (SIMULATE_MG, {"seed": True}),
    (SIMULATE_MG, {"burn-in": False}),
])
def test_config_values_are_type_checked(argv, overrides, tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert stderr_code(capsys) == "config"
    assert not out.exists()


def test_config_values_parse_like_their_flags(tmp_path):
    """An integer for a float flag and true for a switch are accepted, and
    the run writes the same bytes as the same flags on the command line."""
    by_flags, by_config = tmp_path / "flags", tmp_path / "config"
    assert main(["analyze-gi", "--arrival-rate", "1", "--mu", "2",
                 "--order", "20", "--override", "--out", str(by_flags)]) == 0
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"arrival-rate": 1, "mu": 2, "order": 20,
                               "override": True}))
    assert main(["analyze-gi", "--config", str(cfg),
                 "--out", str(by_config)]) == 0
    for name in ("analyze-gi.json", "analyze-gi-pmf.csv"):
        assert ((by_flags / name).read_bytes()
                == (by_config / name).read_bytes())


def test_simulate_insufficient_data_exits_1_without_writing_trace(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused simulate must not simulate")

    # Like compare, simulate refuses the run before simulating or writing.
    monkeypatch.setattr(cli.simulator, "simulate_mg", refuse)
    out = str(tmp_path)
    assert main(["simulate", "--model", "mg", "--lambda", "1.0", "--mu", "2.5",
                 "--stages", "120", "--burn-in", "100", "--out", out]) == 1
    assert stderr_code(capsys) == "config"
    assert not os.path.exists(os.path.join(out, "trace-mg.csv"))
    assert os.listdir(out) == []


# ---------------------------------------------------------------- publishing ----

GI_RERUN = [["analyze-gi", "--rho", "0.45"], ["analyze-gi", "--rho", "0.2"]]
SIM_RERUN = [["simulate", "--model", "gi", "--rho", "0.5", "--stages", "3000"],
             ["simulate", "--model", "gi", "--rho", "0.3", "--stages", "2000"]]


def snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(out).iterdir())}


def test_rerunning_into_one_directory_leaves_only_fresh_artifacts(tmp_path):
    shared = tmp_path / "shared"
    for argv in GI_RERUN + SIM_RERUN:
        assert main(argv + ["--out", str(shared)]) == 0
    # The second run of each pair writes shorter files than the first.
    for argv in (GI_RERUN[1], SIM_RERUN[1]):
        assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0
    assert snapshot(shared) == snapshot(tmp_path / "fresh")
    assert sorted(os.listdir(shared)) == [
        "analyze-gi-pmf.csv", "analyze-gi.json", "stats-gi.json",
        "trace-gi.csv"]


class _FullDisk:
    """A text file whose write stores half the text and then fails as a
    full disk does."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("argv", [GI_RERUN, SIM_RERUN], ids=["gi", "sim"])
def test_a_failed_write_keeps_the_previous_artifact(argv, tmp_path,
                                                    monkeypatch):
    out = ["--out", str(tmp_path)]
    assert main(argv[0] + out) == 0
    before = snapshot(tmp_path)
    monkeypatch.setattr(cli, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        main(argv[1] + out)
    assert snapshot(tmp_path) == before


def test_a_link_or_read_only_file_at_an_artifact_path_is_replaced(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    target = tmp_path / "target.json"
    target.write_text("kept\n")
    (out / "analyze-gi.json").symlink_to(target)
    (out / "analyze-gi-pmf.csv").write_text("stale\n")
    (out / "analyze-gi-pmf.csv").chmod(0o444)
    assert main(["analyze-gi", "--rho", "0.3", "--out", str(out)]) == 0
    assert main(["analyze-gi", "--rho", "0.3", "--out",
                 str(tmp_path / "fresh")]) == 0
    assert snapshot(out) == snapshot(tmp_path / "fresh")
    assert target.read_text() == "kept\n"
    umask = os.umask(0)
    os.umask(umask)
    for path in out.iterdir():
        assert path.is_file() and not path.is_symlink()
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def test_a_stale_temporary_file_is_replaced(tmp_path):
    stale = tmp_path / f".analyze-gi.json.{os.getpid()}.tmp"
    stale.write_text("left by a killed run\n")
    assert main(["analyze-gi", "--rho", "0.3", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["analyze-gi-pmf.csv",
                                            "analyze-gi.json"]


# ------------------------------------------------------------- serialization ----

def test_csv_cells_preserve_value_semantics(tmp_path):
    path = str(tmp_path / "cells.csv")
    awkward = 0.1 + 0.2
    write_csv(path, ["a", "b", "c", "d"], [[1], [awkward], [True], ["name"]])
    header, rows = read_csv(path)
    assert rows == [["1", "0.30000000000000004", "true", "name"]]
    assert float(rows[0][1]) == awkward


# The per-row writer that formatted every cell through one type dispatch,
# kept as the reference for the column-wise writer's bytes.

def _reference_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_reference_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def read_text(path):
    with open(path) as fh:
        return fh.read()


def test_write_csv_columns_match_the_per_row_writer(tmp_path):
    floats = np.array([0.1 + 0.2, -0.0, 1e-300, 5e-324, np.inf, -np.inf,
                       np.nan, 123456789.0])
    ints = np.arange(-4, 4)
    small = np.arange(8, dtype=np.uint8)
    flags = floats > 0.0
    singles = floats.astype(np.float32)
    mixed = ["x", 2, 0.5, True, None, -1, "", 7e22]
    header = list("abcdefg")
    path = write_csv(str(tmp_path / "cols.csv"), header,
                     [range(3, 11), floats, ints, small, flags, singles, mixed])
    # float64, integer and bool arrays reach the old writer as the Python
    # scalars of tolist(); any other column element by element.
    rows = zip(range(3, 11), floats.tolist(), ints.tolist(), small.tolist(),
               flags.tolist(), singles, mixed)
    assert read_text(path) == reference_csv(header, rows)
    path = write_csv(str(tmp_path / "empty.csv"), ["a", "b"], [[], np.empty(0)])
    assert read_text(path) == "a,b\n"
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "ragged.csv"), ["a", "b"], [range(3), [1.0]])


@pytest.mark.parametrize("argv", [
    ["--model", "mg", "--lambda", "1.0", "--mu", "2.5", "--seed", "61"],
    ["--model", "gi", "--rho", "0.5", "--seed", "62"],
])
def test_simulate_trace_bytes_match_the_per_row_writer(argv, tmp_path):
    out = str(tmp_path)
    assert main(["simulate"] + argv + ["--stages", "3000", "--out", out]) == 0
    args = dict(zip(argv[::2], argv[1::2]))
    seed = int(args["--seed"])
    if args["--model"] == "mg":
        trace = simulator.simulate_mg(
            1.0, ServiceDistribution.exponential(2.5), 3000, seed=seed)
    else:
        trace = simulator.simulate_gi(ArrivalDistribution.poisson(0.5), 1.0,
                                      3000, seed=seed)
    rows = [(i, float(trace.y[i]), int(trace.k[i]), bool(trace.waiting[i]),
             float(trace.m[i])) for i in range(len(trace))]
    got = read_text(os.path.join(out, f"trace-{args['--model']}.csv"))
    assert got == reference_csv(["n", "y", "k", "waiting_phase", "m"], rows)


def test_analyze_gi_pmf_bytes_match_the_per_row_writer(tmp_path):
    out = str(tmp_path)
    assert main(["analyze-gi", "--rho", "0.5", "--out", out]) == 0
    model = giqueue.GiModel(ArrivalDistribution.poisson(0.5), 1.0)
    sol = giqueue.solve_factorial_moments(model, order=25)
    mass = giqueue.pmf_total_mass(sol, model)
    rows, cum = [], 0.0
    for i in range(1, 100001):
        pi = giqueue.stationary_pmf(sol, model, i)
        rows.append((i, pi))
        cum += pi
        if mass - cum < 1e-10 and i >= 10:
            break
    got = read_text(os.path.join(out, "analyze-gi-pmf.csv"))
    assert got == reference_csv(["i", "pi"], rows)


@pytest.mark.parametrize("figure,argv", [
    ("density", ["--lambda", "1.0", "--mu", "2.5", "--bins", "16"]),
    ("pmf", ["--rho", "0.5"]),
])
def test_compare_bytes_match_the_per_row_writer(figure, argv, tmp_path):
    out = str(tmp_path)
    assert main(["compare", "--figure", figure, "--stages", "3000",
                 "--seed", "63", "--out", out] + argv) == 0
    if figure == "density":
        model = mgqueue.MgModel(1.0, ServiceDistribution.exponential(2.5))
        sol = mgqueue.solve_stage_moments(model, order=10)
        trace = simulator.simulate_mg(1.0, model.service, 3000, seed=63)
        rows = cli._density_rows(argparse.Namespace(mu=2.5, bins=16), 10,
                                 None, model, sol, trace)
        first = "y"
    else:
        model = giqueue.GiModel(ArrivalDistribution.poisson(0.5), 1.0)
        sol = giqueue.solve_factorial_moments(model, order=25)
        trace = simulator.simulate_gi(model.arrivals, 1.0, 3000, seed=63)
        rows = cli._pmf_rows(argparse.Namespace(bins=64), 25, None, model,
                             sol, trace)
        first = "i"
    got = read_text(os.path.join(out, f"compare-{figure}.csv"))
    assert got == reference_csv([first, "analytic", "simulated", "se"], rows)


# ------------------------------------------------------- JSON properties ----

def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_ANALYZE_RUNS = st.one_of(
    st.tuples(st.just("analyze-mg"), st.floats(0.05, 0.99),
              st.integers(4, 40)),
    st.tuples(st.just("analyze-gi"), st.floats(0.05, 0.49),
              st.integers(4, 60)))


@settings(max_examples=20, deadline=None)
@given(run=_ANALYZE_RUNS)
def test_analyze_json_is_finite_and_canonical(run):
    """Across light traffic, analyze-mg and analyze-gi exit 0 or 3, and each
    JSON artifact holds no NaN or Infinity and re-serializes to its bytes."""
    command, rho, order = run
    load = (["--lambda", repr(rho), "--mu", "1.0"] if command == "analyze-mg"
            else ["--rho", repr(rho)])
    with tempfile.TemporaryDirectory() as out:
        assert main([command, *load, "--order", str(order),
                     "--out", out]) in (0, 3)
        names = [n for n in os.listdir(out) if n.endswith(".json")]
        assert names
        for name in names:
            text = read_text(os.path.join(out, name))
            obj = json.loads(text, parse_constant=_refuse_constant)
            assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == text
