"""Smoke runs of the benchmark harness in perfbench/.

The harness reads RunStats and VerifyStats fields, the double_chain
result and the sieve engine names, so a drift in any of them fails here
instead of first failing in a benchmark run.  Each smoke run checks its
outputs against perfbench/reference.json and writes its record to the
git-ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the sieve-deep workload and --trace 1 need it

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["prove-large", "search-3000", "sieve-deep"])
def test_smoke_run(workload, trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["failed"] == 0, result
