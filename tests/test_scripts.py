"""The example scripts run to completion."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("args", [
    ["cover_degeneration.py"],
    ["degeneration_census.py", "5", "1"],
    ["numeric_envelope.py", "5,7", "2"],
])
def test_script_runs(args):
    r = subprocess.run([sys.executable, str(SCRIPTS / args[0]), *args[1:]],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
