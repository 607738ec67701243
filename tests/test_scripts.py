"""The README scripts run end to end with small arguments."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_genericity_demo():
    out = run_script("genericity_demo.py")
    assert "generic-up-to-budget" in out  # the golden ratio passes
    assert "FAIL" in out  # the factorial series fails somewhere


@pytest.mark.parametrize(
    "name, args",
    [
        ("feasibility_frontier.py", ("--max-exp", "8")),
        ("bounds_gap_table.py", ("--min", "2", "--max", "6")),
    ],
)
def test_csv_scripts(name, args):
    rows = list(csv.reader(io.StringIO(run_script(name, *args))))
    assert len(rows) >= 2  # a header and at least one data row
    assert all(len(row) == len(rows[0]) for row in rows)
