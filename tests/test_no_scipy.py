"""The package, every command-line subcommand, validate() and the moment
solve, density and stage-count pmf of a general law run without loading
scipy.

numpy is the only runtime dependency: every integral comes from the
package's own Gauss-Kronrod engine, and scipy serves the tests as a
reference only.  The check runs in a fresh interpreter, since the test
process itself has scipy loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
report = {}
import gatedq, gatedq.cli
report["import"] = scipy_modules()
commands = [
    ["analyze-mg", "--lambda", "1.0", "--mu", "2.5"],
    ["analyze-gi", "--rho", "0.5"],
    ["analyze-gi", "--deterministic", "1.0", "--mu", "1.0"],
    ["dominance", "--system", "mg", "--lambda", "0.75", "--mu", "1.0",
     "--order", "12"],
    ["dominance", "--system", "gi", "--rho", "0.3"],
    ["simulate", "--model", "mg", "--lambda", "1.0", "--mu", "2.5",
     "--stages", "3000"],
    ["simulate", "--model", "gi", "--rho", "0.5", "--stages", "3000"],
    ["compare", "--figure", "moments", "--lambda", "1.0", "--mu", "2.5",
     "--stages", "3000"],
    ["compare", "--figure", "density", "--lambda", "1.0", "--mu", "2.5",
     "--stages", "3000"],
    ["compare", "--figure", "mean-length", "--mu", "2.5",
     "--rho-grid", "0.1,0.5", "--stages", "3000"],
    ["compare", "--figure", "pmf", "--rho", "0.5", "--stages", "3000"],
]
for argv in commands:
    code = gatedq.cli.main(argv + ["--out", out])
    report[" ".join(argv)] = [code, scipy_modules()]

import numpy as np
from gatedq import MgModel, ServiceDistribution, solve_stage_moments

def pdf(y):
    y = np.asarray(y, dtype=float)
    return np.where(y < 0, 0.0, 100.0 * y * np.exp(-10.0 * y))

def cdf(y):
    y = np.asarray(y, dtype=float)
    return np.where(y < 0, 0.0, 1.0 - (1.0 + 10.0 * y) * np.exp(-10.0 * y))

from gatedq import stage_count_pmf, stationary_density, validate

erlang = ServiceDistribution.from_callables(pdf, cdf)
model = MgModel(0.3, erlang)
sol = solve_stage_moments(model, order=4)
pmf = [stage_count_pmf(sol, model, k) for k in (1, 2, 3)]
density = stationary_density(sol, model, 0.1)
report["general"] = [sol.converged, sol.beta1, pmf, density, scipy_modules()]

uniform = ServiceDistribution.from_callables(
    lambda y: np.where((np.asarray(y) >= 0) & (np.asarray(y) <= 0.5), 2.0, 0.0),
    lambda y: np.clip(np.asarray(y, dtype=float) / 0.5, 0.0, 1.0))
laws = [ServiceDistribution.exponential(2.5), erlang, uniform]
report["validate"] = [[validate(d).ok for d in laws], scipy_modules()]
print(json.dumps(report))
"""


def test_exponential_and_gi_paths_load_no_scipy(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("GATEDQ_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report.pop("import") == []
    converged, beta1, pmf, density, general_modules = report.pop("general")
    ok, validate_modules = report.pop("validate")
    assert len(report) == 11
    for command, (code, modules) in report.items():
        assert (code, modules) == (0, []), command
    # The general law solves and integrates its pmf by quadrature, and the
    # quadrature is not scipy's.
    assert converged and 0.15 < beta1 < 0.3
    assert 0.9 < pmf[0] < 1.0 and 0.0 < pmf[2] < pmf[1] < 0.1
    assert density > 0.0
    assert general_modules == []
    assert ok == [True, True, True] and validate_modules == []
