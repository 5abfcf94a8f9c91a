"""Matrix-free interior point solver for convex quadratic programs.

Newton directions come from the doubly augmented KKT system, solved with
preconditioned conjugate gradients: a quasi-Newton Hessian's low-rank part
is kept whole in the preconditioner (Woodbury), every other Hessian uses
Jacobi. Includes an SVM dual frontend and a CLI with per-iteration
diagnostics.
"""

from .ipm import IpmConfig, SolveReport, SolveStatus, TraceRecord, solve
from .linalg import PcgConfig, PcgResult, pcg
from .model import (Bounds, DenseHessian, DiagonalHessian, QpProblem,
                    QuasiNewtonHessian, SparseHessian, SparseMatrix, box_qp,
                    hessian_apply, hessian_diagonal, validate_problem)

__all__ = [
    "Bounds", "DenseHessian", "DiagonalHessian", "IpmConfig", "PcgConfig",
    "PcgResult", "QpProblem", "QuasiNewtonHessian", "SolveReport",
    "SolveStatus", "SparseHessian", "SparseMatrix", "TraceRecord", "box_qp",
    "hessian_apply", "hessian_diagonal", "pcg", "solve", "validate_problem",
]

__version__ = "0.1.0"
