import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_linalg():
    """scipy.linalg adds about 8 MB of resident memory; only the SVM kernel's
    product (``svm.SignedKernel.apply``) may import it, when it first runs."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import qpipm, qpipm.cli, qpipm.svm; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_kept_rows_do_not_load_scipy_linalg():
    """The capacitance matrix of the preconditioner's kept rows of B is
    inverted with numpy: a scipy.linalg factorization would add the same 8 MB."""
    code = """
import sys
sys.path[:0] = sys.argv[1:3]
from oracles import dense_preconditioner, sparse_from_dense
from qpipm.ipm import IpmConfig, SolveStatus, initialize, solve
from qpipm.model import Bounds, QpProblem, SparseHessian

problem = QpProblem(
    n=3, hessian=SparseHessian(sparse_from_dense(
        [[0.05, 0.01, 0.0], [0.01, 0.05, 0.0], [0.0, 0.0, 0.05]])),
    p=[1.0, -1.0, 0.5], a=sparse_from_dense([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
    lin_bounds=Bounds([-1.0, -2.0], [1.0, 2.0]),
    c=sparse_from_dense([[1.0, 0.0, 1.0]]), b=[0.5],
    var_bounds=Bounds([-5.0] * 3, [5.0] * 3))
assert dense_preconditioner(problem, initialize(problem, IpmConfig()))[1]
assert solve(problem).status is SolveStatus.CONVERGED
print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))
"""
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(Path(__file__).parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
