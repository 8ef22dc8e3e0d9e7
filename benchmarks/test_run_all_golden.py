"""Golden output: the stdout of ``repro run all --fast``, byte for byte.

``run_all_fast.txt`` pins every experiment's table at the fast preset,
so a change that moves any experiment's numbers, rounding or layout
fails here, whichever layer it touched.  The run is deterministic, and
the test checks it serially and with ``-j 2``.

A change that is meant to move outputs regenerates the file with

    PYTHONPATH=src python -m repro.cli run all --fast \\
        > benchmarks/run_all_fast.txt

and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("run_all_fast.txt")


@pytest.mark.parametrize("jobs", ([], ["-j", "2"]), ids=("serial", "j2"))
def test_run_all_fast_matches_golden(jobs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_JOBS", None)
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "all", "--fast", *jobs],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert completed.stdout == GOLDEN.read_bytes()
