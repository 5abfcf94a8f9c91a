import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bfgs_stress.py"), *flags],
                          capture_output=True, text=True, env=env)


def test_small_instance_converges():
    run = _run("--n", "300", "--rank", "3", "--bounded", "30")
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.startswith("status=converged ")


@pytest.mark.parametrize("flags, message", [
    (["--n", "0"], "--n must be at least 1"),
    (["--rank", "-1"], "--rank must be nonnegative"),
    (["--n", "300", "--bounded", "400"], "--bounded must lie in [0, n]"),
    (["--bounded", "-1"], "--bounded must lie in [0, n]"),
])
def test_bad_flag_is_usage_error(flags, message):
    run = _run(*flags)
    assert run.returncode == 2
    assert f"error: {message}" in run.stderr
    assert "Traceback" not in run.stderr
