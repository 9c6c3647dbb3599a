"""The benchmark's traced run as a smoke test.

A one-second traced run of `bench/run.py` checks every readback and the
pinned closed forms of its per-layer counts (tower: `sg` 4k-1 steps and
`pn-mlbl` 4/14/35/78/165/340; Church: 3n / 3n+1 steps and 2 on the S Z
shape), so a change that moves one fails here as well as in the
benchmark.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["tower", "church"])
def test_traced_run_has_no_mismatch(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--trace", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 mismatches" in proc.stdout, proc.stdout
    assert '"correct": true' in proc.stdout, proc.stdout
