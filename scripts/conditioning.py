#!/usr/bin/env python3
"""Condition numbers of the doubly augmented KKT system at every IPM iteration.

For each Newton system K that the solver builds, prints kappa(K), kappa of
the Jacobi-scaled diag(K)^{-1/2} K diag(K)^{-1/2}, and kappa(M^{-1} K) for the
preconditioner M that PCG uses (``qpipm.kkt.preconditioner``), each from the
dense eigenvalues of the symmetrically scaled operator. K and M^{-1} are
formed by applying them to the identity columns, so keep n + m below about
1000. Each IPM iteration solves twice with one K and one M, a predictor and
a corrector: one row per solve, with its phase (pred / corr) and CG count.

Two problems of n variables: the sparse QP family of the benchmark
(``perfbench/inputs.py``, n/40 equality and n/8 two-sided rows) and its
stand-in with H = M'M + 0.1I, M sparse random with about 5 nonzeros per row
(n/20 equality and n/4 two-sided rows), on which Jacobi-preconditioned PCG
stalls.

Usage: PYTHONPATH=src python scripts/conditioning.py [--n 400]
"""

import argparse
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from qpipm.ipm import solve
from qpipm.kkt import apply_doubly_augmented
from qpipm.linalg import pcg
from qpipm.model import Bounds, QpProblem, SparseHessian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import SPARSE_QP_INSTANCE, _sparse_qp_instance  # noqa: E402


def _problem(q: dict, h) -> QpProblem:
    n = h.shape[0]
    return QpProblem(n=n, hessian=SparseHessian(h), p=q["p"],
                     a=q["a"], lin_bounds=Bounds(q["l"], q["u"]),
                     c=q["c"], b=q["b"], var_bounds=Bounds(q["lx"], q["ux"]))


def problems(n: int) -> dict[str, QpProblem]:
    family = _sparse_qp_instance(np.random.default_rng([SPARSE_QP_INSTANCE, 0]),
                                 n, max(n // 40, 1), max(n // 8, 1))
    stand_in = _sparse_qp_instance(np.random.default_rng(7), n, n // 20, n // 4)
    m = sp.random(n, n, density=5 / n, random_state=3)
    return {"sparse_qp": _problem(family, family["h"]),
            "stand_in": _problem(stand_in, m.T @ m + 0.1 * sp.eye(n))}


def _kappa(sym: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return float(eig[-1] / eig[0]) if eig[0] > 0 else np.inf


def _columns(apply, dim: int) -> np.ndarray:
    return np.column_stack([apply(e) for e in np.eye(dim)])


def kappas(op, prec) -> tuple[float, float, float]:
    """kappa(K), kappa(diag(K)^{-1} K) and kappa(M^{-1} K), dense."""
    k = _columns(lambda v: apply_doubly_augmented(op, v), op.dim)
    scale = 1.0 / np.sqrt(np.diag(k))
    m_inv = _columns(prec, op.dim)
    # M^{-1} = L L': M^{-1} K is similar to L' K L
    l = np.linalg.cholesky(0.5 * (m_inv + m_inv.T))
    return _kappa(k), _kappa(scale[:, None] * k * scale), _kappa(l.T @ k @ l)


def report(name: str, problem: QpProblem) -> None:
    """Solve the problem, then print one row per Newton solve and a summary."""
    rows = []

    def direction(op, rhs, cfg, prec, x0):
        result = pcg(lambda v: apply_doubly_augmented(op, v), prec, rhs, cfg, x0=x0)
        # the hook is called twice per iteration, the predictor first; the
        # corrector reuses the predictor's operator and preconditioner
        if len(rows) % 2 == 0:
            phase, k = "pred", kappas(op, prec)
        else:
            phase, k = "corr", rows[-1][3:]
        rows.append((len(rows) // 2 + 1, phase, result.iterations, *k))
        return result

    out = solve(problem, direction_solver=direction)
    print(f"# {name}: n={problem.n}, {problem.layout.b.shape[0]} rows of B")
    print(f"{'iter':>4} {'phase':>5} {'mu':>9} {'cg':>5} {'kappa(K)':>10} "
          f"{'kappa(Jacobi)':>13} {'kappa(M^-1 K)':>13}")
    for it, phase, cg, k, jacobi, prec in rows:
        # no trace record when the direction could not be used
        mu = out.trace[it - 1].mu if it <= len(out.trace) else np.nan
        print(f"{it:4d} {phase:>5} {mu:9.2e} {cg:5d} {k:10.3e} {jacobi:13.3e} {prec:13.3e}")
    total_cg = sum(t.cg_iters for t in out.trace)
    print(f"# {name}: {out.status.value} after {out.iterations} IPM iterations, "
          f"{total_cg} CG, objective {out.objective:.9e}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=400)
    args = ap.parse_args()
    for name, problem in problems(args.n).items():
        report(name, problem)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
