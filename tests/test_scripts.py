"""Smoke test of the README experiments and the event-cost timer: each
script runs to exit 0 in a fresh interpreter.  run_closing exits 1 when any
closed orbit fails its checks; the others exit 0 whenever they run
through."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_contraction.py"],
        ["run_hilbert.py"],
        ["run_closing.py", "--seeds", "5"],
        ["event_cost.py", "--repeat", "1", "--flows", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_experiment_script_exits_0(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout
