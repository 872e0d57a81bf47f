"""Every script in demos/ runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cm7prime.jk_sequence import jk_closed

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


def _run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    res = _run(demo)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def test_sequence_demo_prints_the_norm_table():
    # one row per k, from k to J_k = N(1 + 2*alpha^k)
    res = _run(ROOT / "demos" / "01_sequence_basics.py")
    assert res.returncode == 0, res.stderr
    ends = [[row[0], row[-1]]
            for row in map(str.split, res.stdout.splitlines()) if row]
    for k in range(1, 11):
        assert [str(k), str(jk_closed(k).value)] in ends, k
