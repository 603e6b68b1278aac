"""Replay recorded CLI invocations and compare stdout and exit code byte for byte.

The files under tests/golden/ pin "same behaviour" for refactors: text,
JSON and DOT output of enumerate, export, verify, mutate and forms.
cases.json maps each case name to its argv and exit code; <name>.out holds
the stdout recorded for it.
"""

import json
from pathlib import Path

import pytest

from clustermut import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    case = CASES[name]
    code = cli.main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
