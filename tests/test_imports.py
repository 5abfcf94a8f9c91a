import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_linalg():
    """scipy.linalg adds about 8 MB of resident memory; only a dense Hessian's
    product may import it, when it first runs."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import qpipm, qpipm.cli, qpipm.svm; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
