"""Every `gatedq ...` command of README's command-line section runs as shown."""

import importlib.util
import json
import os
import pathlib
import shlex

import pytest

from gatedq import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)


def readme_commands():
    """tools/same_bytes.py's README commands, less the `--config run.json`
    example, which needs a file the README does not show."""
    return [c for c in same_bytes.readme_commands(ROOT) if "--config" not in c]


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
