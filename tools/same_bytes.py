"""Record what a fixed list of gatedq commands produce, for a byte-for-byte
comparison of two checkouts.

    python3 tools/same_bytes.py CHECKOUT OUTDIR

imports gatedq from CHECKOUT/src and runs, in this one process, every
`gatedq ...` line of CHECKOUT's README "Command line" section followed by a
fixed list of edge cases: an unconverged ladder, beta_i past double range,
capped, pinned and short ladders, out-of-regime and unrepresentable models,
a numerically singular truncation, a zero diagonal, both dominance systems,
deterministic dominance past light traffic, short simulate runs, simulate
runs that take more than 65 536 draws of a stream, traces at the edge of
the CSV writer's 4 096-row blocks, heavy-load simulate runs whose stages
take many draws, loads too heavy to simulate, every compare figure,
extreme GI rates and rates built from two flags that leave double range.
Each command runs in its own empty directory OUTDIR/NN (the working
directory, so the paths it prints are relative).  Last come the overwrite
cases: an analyze-gi and a simulate command each run in a directory where
another command of its kind ran first.
OUTDIR/manifest.json holds, per command, its exit code, stdout, stderr and
the sha256 of each file in its directory afterwards (for an overwrite, also
the command it ran over).  An exception that escapes cli.main is
recorded as exit 1 with its last traceback line, which names no path.

Two checkouts give the same bytes when their manifests are identical:

    python3 tools/same_bytes.py PARENT /tmp/parent
    python3 tools/same_bytes.py .      /tmp/change
    diff /tmp/parent/manifest.json /tmp/change/manifest.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
import traceback

# The --config example of the README reads this file.
CONFIG = {"run.json": '{"order": 12}\n'}

EDGES = [
    # Unconverged ladders: the analyze reports are still written, compare
    # writes nothing.
    "gatedq analyze-mg --lambda 0.99 --mu 1.0 --order 4",
    "gatedq analyze-gi --rho 0.85 --order 4 --n-max 8 --tol 1e-14",
    "gatedq compare --figure moments --lambda 0.99 --mu 1.0 --order 4",
    # beta_i past double range on a long ladder.
    "gatedq analyze-mg --lambda 0.8 --mu 1.0 --order 22",
    # Ladder shapes: a last rung capped at n_max, a pinned ladder and a
    # short GI ladder.
    "gatedq analyze-mg --lambda 0.7 --mu 1.0 --order 4 --n-max 12",
    "gatedq analyze-mg --lambda 0.5 --mu 1.0 --order 8 --n-max 8",
    "gatedq analyze-gi --deterministic 2.0 --mu 1.0 --order 6 --n-max 12",
    # Refusals: outside light traffic, unrepresentable, numerically singular.
    "gatedq analyze-mg --lambda 3.0 --mu 2.5",
    "gatedq analyze-gi --deterministic 0.5 --mu 1.0",
    "gatedq analyze-mg --lambda 0.5 --mu 1e300",
    "gatedq analyze-gi --deterministic 0.5 --mu 1.0 --override",
    # A configuration error.
    "gatedq analyze-mg --lambda -1.0 --mu 2.5",
    # Both assemblies of the M/G system on an exponential law, and the GI
    # system for Poisson, given-rate and deterministic arrivals.
    "gatedq analyze-mg --lambda 1.0 --mu 2.5 --assembly general --order 8",
    "gatedq analyze-gi --arrival-rate 0.4 --mu 1.0",
    "gatedq dominance --system mg --lambda 0.5 --mu 1.0 --order 12",
    "gatedq dominance --system mg --lambda 0.5 --mu 1.0 --order 8 "
    "--assembly general",
    "gatedq dominance --system gi --rho 0.45 --order 12",
    "gatedq dominance --system gi --deterministic 1.0 --mu 1.0 --order 12",
    # Exact deterministic rows with the longest head: bhat_1 = 0.4966.
    "gatedq dominance --system gi --deterministic 0.7 --mu 1.0 --order 12",
    # The same rows past the normal range of (1 - bhat_1)^i, from row 1033.
    "gatedq dominance --system gi --deterministic 0.7 --mu 1.0 --order 1100",
    # Poisson rows that leave double range on purpose from row 309.
    "gatedq dominance --system gi --rho 0.01 --order 400",
    # Both closed-form systems just below where their plain rows stop being
    # dominant, and exact general GI rows whose powers underflow.
    "gatedq dominance --system mg --lambda 0.93 --mu 1.0",
    "gatedq dominance --system gi --rho 0.34",
    "gatedq dominance --system gi --deterministic 2.0 --mu 1.0 --order 64",
    # Exact deterministic rows whose first head of columns does not settle,
    # so it doubles.
    "gatedq dominance --system gi --deterministic 2.335844085233836 "
    "--mu 1.0 --order 64",
    # Short simulations of both queues and all arrival laws.
    "gatedq simulate --model mg --lambda 1.0 --mu 2.5 --stages 2000 --seed 3",
    "gatedq simulate --model mg --lambda 0.5 --mu 1.0 --stages 2000 "
    "--column total",
    "gatedq simulate --model gi --rho 0.5 --stages 2000 --burn-in 100",
    "gatedq simulate --model gi --deterministic 1.0 --mu 1.0 --stages 2000",
    "gatedq simulate --model gi --arrival-rate 0.3 --mu 1.0 --stages 2000",
    # Every compare figure at short lengths.
    "gatedq compare --figure moments --lambda 0.5 --mu 1.0 --stages 3000",
    "gatedq compare --figure density --lambda 0.5 --mu 1.0 --stages 3000 "
    "--bins 16",
    "gatedq compare --figure mean-length --mu 1.0 --rho-grid 0.2,0.6 "
    "--stages 2000",
    "gatedq compare --figure pmf --rho 0.3 --stages 3000",
    "gatedq compare --figure pmf --deterministic 1.0 --mu 1.0 --stages 3000",
    # The GI pmf of a non-Poisson law, which reads bhat_k from the model.
    "gatedq compare --figure pmf --deterministic 1.25 --mu 1.0 --stages 2000",
    # Runs that take more than 65 536 draws of a stream in both simulators.
    "gatedq simulate --model mg --lambda 1.2 --mu 2.0 --stages 70000",
    "gatedq simulate --model gi --rho 0.6 --stages 70000",
    # Heavy loads: stages take many draws and lists refill mid-stage.
    "gatedq simulate --model mg --lambda 8.0 --mu 1.0 --stages 20000",
    "gatedq simulate --model gi --rho 3.0 --stages 30000",
    # Traces of exactly one 4 096-row block of the CSV writer, and one row
    # past it.
    "gatedq simulate --model mg --lambda 1.0 --mu 2.5 --stages 4096 "
    "--burn-in 100",
    "gatedq simulate --model gi --rho 0.5 --stages 4097 --burn-in 100",
    # Heavier loads whose stages span dozens of 4 096-draw blocks.
    "gatedq simulate --model mg --lambda 1e4 --mu 1.0 --stages 300 "
    "--burn-in 100",
    "gatedq simulate --model gi --rho 3000 --stages 200 --burn-in 100",
    # Loads too heavy to simulate: a Poisson mean numpy refuses, and stages
    # that need more service times or gaps than the simulator draws.
    "gatedq simulate --model mg --lambda 1e30 --mu 1.0 --stages 2000",
    "gatedq simulate --model mg --lambda 1e12 --mu 1.0 --stages 2000",
    "gatedq simulate --model gi --deterministic 1e-300 --mu 1.0 --stages 2000",
    # Extreme GI rates: a Poisson rate or a deterministic spacing whose
    # square leaves double range, and a bhat(mu) that rounds to 1.
    "gatedq analyze-gi --rho 1e-200",
    "gatedq analyze-gi --arrival-rate 1e-300 --mu 1.0",
    "gatedq dominance --system gi --rho 1e-200",
    "gatedq simulate --model gi --rho 1e-200 --stages 2000",
    "gatedq compare --figure pmf --rho 1e-200 --stages 2000",
    "gatedq analyze-gi --rho 0.3 --mu 1e300",
    "gatedq analyze-gi --deterministic 1e300 --mu 1.0",
    "gatedq simulate --model gi --deterministic 1e300 --mu 1.0 --stages 2000",
    "gatedq analyze-gi --deterministic 1e-300 --mu 1.0 --override",
    "gatedq dominance --system gi --deterministic 1e-300 --mu 1.0 --override",
    # A zero diagonal entry: row 1 of the Poisson system at rho = 1.
    "gatedq dominance --system gi --rho 1.0 --override",
    # Deterministic rows past light traffic, assembled by override: exact
    # rows, a head too long to hold (bhat(mu) = 1 - 1e-10), and rows whose
    # sums leave double range.
    "gatedq dominance --system gi --deterministic 0.5 --mu 1.0 --override",
    "gatedq dominance --system gi --deterministic 1e-10 --mu 1.0 --override "
    "--order 100",
    "gatedq dominance --system gi --deterministic 0.1 --mu 1.0 --override "
    "--order 400",
    # Exponential min moments m!/(k mu)^m that overflow to inf, and powers
    # lam^m that underflow to 0.0, around the general assembly's lead.
    "gatedq analyze-mg --lambda 0.0005 --mu 0.001 --assembly general "
    "--order 80 --n-max 80",
    "gatedq analyze-mg --lambda 0.0005 --mu 0.001 --assembly general "
    "--order 120 --n-max 120",
    "gatedq dominance --system mg --lambda 0.0005 --mu 0.001 --assembly "
    "general --order 60",
    # Rates built from two flags that leave double range: a config error.
    "gatedq analyze-gi --rho 1e200 --mu 1e200",
    "gatedq simulate --model gi --rho 1e-200 --mu 1e-200 --stages 200 "
    "--burn-in 0",
    "gatedq compare --figure mean-length --mu 5e-324 --rho-grid 0.2 "
    "--stages 2000",
]

# Overwrites: each pair runs in one directory, and the record describes the
# second command and the files it leaves.  The second run writes shorter
# artifacts than the first, so any byte of the first left behind shows.
OVERWRITES = [
    ("gatedq analyze-gi --rho 0.45", "gatedq analyze-gi --rho 0.2"),
    ("gatedq simulate --model gi --rho 0.5 --stages 3000",
     "gatedq simulate --model gi --rho 0.3 --stages 2000"),
]


def readme_commands(checkout: pathlib.Path) -> list:
    """`gatedq` lines inside fenced blocks of the README's "Command line"
    section."""
    text = (checkout / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands, fenced = [], False
    for line in section.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("gatedq "):
            commands.append(line.split("#", 1)[0].strip())
    return commands


def run(main, command: str, workdir: pathlib.Path, over=None) -> dict:
    """Run one command in workdir, after the command over when one is
    given, and describe what the last command did and the files left."""
    workdir.mkdir(parents=True)
    for name, text in CONFIG.items():
        (workdir / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line in filter(None, (over, command)):
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                try:
                    code = main(shlex.split(line)[1:])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # what an uncaught error would do
                    err.write("".join(traceback.format_exception_only(exc)))
                    code = 1
    finally:
        os.chdir(cwd)
    artifacts = {
        str(path.relative_to(workdir)):
            hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file() and path.name not in CONFIG}
    record = {"command": command, "exit": code, "stdout": out.getvalue(),
              "stderr": err.getvalue(), "artifacts": artifacts}
    return record if over is None else {"over": over, **record}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = pathlib.Path(argv[0]).resolve()
    outdir = pathlib.Path(argv[1]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    os.environ.pop("GATEDQ_OUTPUT_DIR", None)
    from gatedq import cli

    source = pathlib.Path(cli.__file__).resolve()
    if checkout not in source.parents:
        print(f"imported gatedq from {source}, not from {checkout}",
              file=sys.stderr)
        return 2
    commands = ([(c, None) for c in readme_commands(checkout) + EDGES]
                + [(c, over) for over, c in OVERWRITES])
    manifest = [run(cli.main, command, outdir / f"{n:02d}", over)
                for n, (command, over) in enumerate(commands)]
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"{path}: {len(manifest)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
