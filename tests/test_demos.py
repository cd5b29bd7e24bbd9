"""Every narrative demo runs to completion; the deterministic ones print
exactly their pinned text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PINNED_STDOUT = {
    "03_base_change_counterexample.py": """\
naive 3-closure over F2: 111 (ideal rank 14 from 15 remainders)
naive 3-closure over F4: 105 (ideal rank 20)
base change changed the answer: True

true 3-closure over F2: 105
true 3-closure over F4: 105
the true closure is stable: True
""",
    "05_inside_the_pipeline.py": """\
generic characteristic polynomial of (x, y)^2  (a local algebra,
so it collapses to a perfect power of Z - X1):
  Z^3 coefficient: 1
  Z^2 coefficient: -3*X1
  Z^1 coefficient: 3*X1^2
  Z^0 coefficient: -X1^3

specialized at (2, 1, -1): Z^3-6*Z^2+12*Z-8

stage dimensions: (3, 6)
remainder rows: 3 nonzero, ideal rank 3 = 3^2 - 6
basis: (1,1), (1,y), (1,x), (y,1), (y,x), (x,1)
x under the two maps: 1*(x,1) | 1*(1,x)
certificate: {'certified': True, 'mode': 'recomputed'}

(x^6) at m=5, stage by stage:
stage dimensions: (6, 30, 120, 360, 720) -> final 720
widest stage: 2160 columns
""",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.name in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo.name]
