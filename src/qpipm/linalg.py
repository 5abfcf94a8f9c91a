"""Preconditioned conjugate gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class PcgBreakdownError(RuntimeError):
    """Nonpositive curvature p'(Op p) <= 0: the operator is not SPD.

    Carries the best iterate found so far so the caller can decide whether
    to continue with it.
    """

    def __init__(self, result: "PcgResult"):
        super().__init__("PCG breakdown: operator is not positive definite")
        self.result = result


@dataclass(frozen=True)
class PcgConfig:
    tol: float = 1e-7
    max_iters: int = 5000
    tol_is_relative: bool = True

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class PcgResult:
    solution: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool


def pcg(apply_op: Callable[[np.ndarray], np.ndarray],
        apply_prec: Callable[[np.ndarray], np.ndarray],
        rhs: np.ndarray,
        cfg: PcgConfig,
        x0: Optional[np.ndarray] = None,
        callback: Optional[Callable[[int, np.ndarray, float], None]] = None) -> PcgResult:
    """Preconditioned conjugate gradients on an SPD operator.

    Convergence is measured on the UNpreconditioned residual ||rhs - Op x||_2,
    relative to ||rhs||_2 when cfg.tol_is_relative. The recurrence residual
    drives the loop; on acceptance the true residual is recomputed explicitly
    and the iteration restarts if drift pushed it back above the threshold.
    Returns the best iterate seen (by residual norm).

    Raises PcgBreakdownError when p'(Op p) <= 0 or NaN is encountered.

    The vector updates run in place through one scratch buffer; they round
    exactly as the out-of-place expressions in the comments.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    threshold = cfg.tol * (np.linalg.norm(rhs) if cfg.tol_is_relative else 1.0)

    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64)
        r = rhs - apply_op(x)
    rnorm = np.linalg.norm(r)
    best_x, best_rnorm = x.copy(), rnorm
    if rnorm <= threshold:
        return PcgResult(x, 0, rnorm, True)

    tmp = np.empty_like(rhs)
    z = apply_prec(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, cfg.max_iters + 1):
        op_p = apply_op(p)
        pap = float(p @ op_p)
        if not pap > 0:  # also catches NaN from a non-finite preconditioner
            raise PcgBreakdownError(PcgResult(best_x, k - 1, best_rnorm, False))
        alpha = rz / pap
        x += np.multiply(alpha, p, out=tmp)  # x += alpha * p
        r -= np.multiply(alpha, op_p, out=tmp)  # r -= alpha * op_p
        rnorm = np.linalg.norm(r)
        if callback is not None:
            callback(k, x.copy(), rnorm)
        if rnorm < best_rnorm:
            np.copyto(best_x, x)
            best_rnorm = rnorm
        if rnorm <= threshold:
            true_r = rhs - apply_op(x)
            true_norm = np.linalg.norm(true_r)
            if true_norm <= threshold:
                return PcgResult(x, k, true_norm, True)
            # recurrence drifted: restart from the explicit residual
            r = true_r
            rnorm = true_norm
            if rnorm < best_rnorm:
                np.copyto(best_x, x)
                best_rnorm = rnorm
            z = apply_prec(r)
            np.copyto(p, z)
            rz = float(r @ z)
            continue
        z = apply_prec(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p *= beta  # p = z + beta * p; the sum commutes exactly
        p += z

    true_norm = np.linalg.norm(rhs - apply_op(best_x))
    return PcgResult(best_x, cfg.max_iters, true_norm, true_norm <= threshold)
