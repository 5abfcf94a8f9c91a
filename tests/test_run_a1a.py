import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qpipm.cli import TRACE_HEADER

ROOT = Path(__file__).resolve().parents[1]


def test_dataset_path_is_read_from_environment(tmp_path):
    rng = np.random.default_rng(3)
    lines = []
    for i in range(12):
        label = "+1" if i % 2 else "-1"
        features = sorted(rng.choice(np.arange(1, 9), 3, replace=False))
        lines.append(label + "".join(f" {j}:1" for j in features))
    data = tmp_path / "small.svm"
    data.write_text("\n".join(lines) + "\n")
    trace = tmp_path / "trace.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QPIPM_A1A=str(data))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_a1a.py"),
                          "--trace", str(trace), "--solution", str(tmp_path / "model.json")],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stdout + run.stderr
    assert trace.read_text().splitlines()[0] == TRACE_HEADER
