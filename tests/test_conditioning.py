import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_conditioning_script_prints_one_row_per_ipm_iteration():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "conditioning.py"),
                          "--n", "40"], capture_output=True, text=True, check=True,
                         env=env).stdout
    sections = re.findall(r"^# (\w+): n=40.*?\n(.*?)^# \1: converged after (\d+) IPM",
                          out, flags=re.M | re.S)
    assert [name for name, _, _ in sections] == ["sparse_qp", "stand_in"]
    for _, body, iterations in sections:
        rows = [line.split() for line in body.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, int(iterations) + 1))
        for r in rows:
            assert all(1.0 <= float(kappa) < float("inf") for kappa in r[3:])
