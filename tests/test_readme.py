"""Smoke test of the README's command block: each deterministic command runs
through ``cli.main``, exits 0 and prints one JSON envelope."""

import json
import shlex
from pathlib import Path

import pytest

from permspectra.cli import main

ROOT = Path(__file__).resolve().parent.parent
#: the commands whose output depends on no sampling, and ``sample``, which is cheap
QUICK = ("exact-moments", "constants", "identities", "sample")


def readme_commands() -> list[list[str]]:
    """Every ``permspectra ...`` line of README.md's code blocks, joined over
    trailing backslashes and split as a shell would, without the program name."""
    commands, pending = [], ""
    for line in (ROOT / "README.md").read_text().splitlines():
        line = pending + line.strip()
        pending = ""
        if line.endswith("\\"):
            pending = line[:-1] + " "
        elif line.startswith("permspectra "):
            commands.append(shlex.split(line)[1:])
    return commands


QUICK_COMMANDS = [argv for argv in readme_commands() if argv[0] in QUICK]


def test_every_quick_command_is_listed():
    assert sorted({argv[0] for argv in QUICK_COMMANDS}) == sorted(QUICK)


@pytest.mark.parametrize("argv", QUICK_COMMANDS, ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    envelope = json.loads(out.out)
    assert set(envelope) == {"command", "config_echo", "results", "schema_version", "timing_ms"}
    assert envelope["command"] == argv[0]
    assert envelope["results"]
