"""The benchmark's plain and traced runs as smoke tests.

A one-second plain run of `bench/run.py` on each workload is the run
that measures the end-to-end metrics: it exits non-zero when a case
raises or reads back wrongly. A one-second traced run checks every
readback and the pinned closed forms of its per-layer counts (tower:
`sg` 4k-1 steps and `pn-mlbl` 4/14/35/78/165/340; Church: 3n / 3n+1
steps and 2 on the S Z shape), so a change that moves one fails here as
well as in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--trace", str(trace), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.mark.parametrize("workload", ["tower", "church", "corpus"])
def test_plain_run_is_correct(workload):
    proc = _run(workload, 0)
    assert '"correct": true' in proc.stdout, proc.stdout


@pytest.mark.parametrize("workload", ["tower", "church"])
def test_traced_run_has_no_mismatch(workload):
    proc = _run(workload, 1)
    assert " 0 mismatches" in proc.stdout, proc.stdout
    assert '"correct": true' in proc.stdout, proc.stdout
