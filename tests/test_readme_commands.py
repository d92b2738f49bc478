"""Every `gatedq ...` command of README's command-line section runs as shown."""

import json
import os
import pathlib
import shlex

import pytest

from gatedq import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """`gatedq` lines inside fenced blocks of the "Command line" section.

    The `--config run.json` example is skipped: it needs a file the README
    does not show.
    """
    text = README.read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands, fenced = [], False
    for line in section.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("gatedq ") and "--config" not in line:
            commands.append(line)
    return commands


def test_readme_has_commands():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GATEDQ_OUTPUT_DIR", raising=False)
    assert cli.main(shlex.split(command)[1:]) == 0
    written = sorted(os.listdir(tmp_path))
    assert written
    for name in written:
        if name.endswith(".json"):
            raw = (tmp_path / name).read_text()
            assert raw == json.dumps(json.loads(raw), sort_keys=True,
                                     indent=2) + "\n", name
