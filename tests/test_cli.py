"""Command-line interface: artifacts, exit codes, config handling."""

import json
import os

import numpy as np
import pytest

from gatedq import cli, giqueue, mgqueue
from gatedq.cli import main, write_csv
from gatedq.distributions import ArrivalDistribution, ServiceDistribution


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
    write_csv(rewritten, header, parsed)
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


# -------------------------------------------------------------- exit codes ----

def test_out_of_regime_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["analyze-mg", "--lambda", "3.0", "--mu", "2.5",
                 "--out", out]) == 2
    assert stderr_code(capsys) == "out_of_regime"
    assert not os.path.exists(os.path.join(out, "analyze-mg.json"))


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
    ["bogus-subcommand"],
    [],
])
def test_config_errors_exit_1(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)] if argv else argv) == 1
    assert stderr_code(capsys) == "config"


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


def test_simulate_insufficient_data_exits_1_after_writing_trace(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["simulate", "--model", "mg", "--lambda", "1.0", "--mu", "2.5",
                 "--stages", "120", "--burn-in", "100", "--out", out]) == 1
    assert stderr_code(capsys) == "config"
    # The trace itself is still useful and is written before the failure.
    assert os.path.exists(os.path.join(out, "trace-mg.csv"))


# ------------------------------------------------------------- serialization ----

def test_csv_cells_preserve_value_semantics(tmp_path):
    path = str(tmp_path / "cells.csv")
    awkward = 0.1 + 0.2
    write_csv(path, ["a", "b", "c", "d"], [(1, awkward, True, "name")])
    header, rows = read_csv(path)
    assert rows == [["1", "0.30000000000000004", "true", "name"]]
    assert float(rows[0][1]) == awkward
