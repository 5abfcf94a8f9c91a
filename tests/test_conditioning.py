import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_conditioning_script_prints_one_row_per_newton_solve():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "conditioning.py"),
                          "--n", "40"], capture_output=True, text=True, check=True,
                         env=env).stdout
    sections = re.findall(r"^# (\w+): n=40.*?\n(.*?)^# \1: converged after (\d+) IPM",
                          out, flags=re.M | re.S)
    assert [name for name, _, _ in sections] == ["sparse_qp", "stand_in"]
    for _, body, iterations in sections:
        rows = [line.split() for line in body.splitlines()[1:]]
        # a predictor and a corrector per IPM iteration
        expected = [(str(it), phase) for it in range(1, int(iterations) + 1)
                    for phase in ("pred", "corr")]
        assert [(r[0], r[1]) for r in rows] == expected
        for r in rows:
            assert all(1.0 <= float(kappa) < float("inf") for kappa in r[4:])
