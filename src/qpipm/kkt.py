"""Residuals, the reduced 2x2 blocks, and the matrix-free doubly augmented operator.

Every inequality is g(x) - s = g0 with slack s > 0 and multiplier lam > 0,
stacked in one order: A rows with a finite lower bound, A rows with a finite
upper bound, lower-bounded variables, upper-bounded variables. The first
m_rows entries are the inequality rows of B = (C; A_l; -A_u) and go into D;
the rest are var_sign * x[var_idx] (+1 lower, -1 upper) and go into Q's
diagonal. g0 = (l, -u, lx, -ux) on the finite entries. The Newton system is
never formed: each operator application uses one product with H, B and B'.
B, B' and diag(H) are built once per problem (``QpProblem.layout``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import QpProblem, hessian_apply


def _multiplier_view(family: int) -> property:
    def view(state: "IterateState") -> np.ndarray:
        out = np.split(state.lam, state.splits)[family]
        out.flags.writeable = False
        return out
    return property(view)


@dataclass
class IterateState:
    """Primal point, multipliers, slacks and barrier parameter.

    s and lam are stacked as in the module docstring and stay strictly
    positive; splits as in ``BoundIndexMap``. lam_e is sign-unrestricted.
    lam_lA, lam_uA, lam_lx and lam_ux are read-only views of lam per family.
    """

    x: np.ndarray
    lam_e: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    mu: float
    splits: tuple[int, int, int]

    lam_lA = _multiplier_view(0)
    lam_uA = _multiplier_view(1)
    lam_lx = _multiplier_view(2)
    lam_ux = _multiplier_view(3)

    def min_interior(self) -> float:
        """Smallest slack or inequality-multiplier entry (inf if none exist)."""
        return min(self.s.min(initial=np.inf), self.lam.min(initial=np.inf))


@dataclass(frozen=True)
class Residuals:
    """Residual blocks: stationarity r_H, equality r_e, and stacked
    r_p = g(x) - s - g0 and r_c = lam * s - mu."""

    r_H: np.ndarray
    r_e: np.ndarray
    r_p: np.ndarray
    r_c: np.ndarray

    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.r_H, self.r_e, self.r_p, self.r_c])

    def norm(self) -> float:
        """2-norm of the full Newton right-hand side."""
        return float(np.linalg.norm(self.concatenated()))


@dataclass(frozen=True)
class FullDirection:
    dx: np.ndarray
    d_lam_e: np.ndarray
    ds: np.ndarray
    d_lam: np.ndarray


def compute_residuals(problem: QpProblem, state: IterateState) -> Residuals:
    """Residual blocks of the perturbed optimality conditions at the iterate."""
    bmap = problem.layout
    x, mu, m = state.x, state.mu, bmap.m_rows
    bx = bmap.b @ x
    r_H = hessian_apply(problem.hessian, x) + problem.p \
        - bmap.bt @ np.concatenate([state.lam_e, state.lam[:m]])
    r_H -= bmap.scatter_var(bmap.var_sign * state.lam[m:])
    res = Residuals(r_H=r_H, r_e=bx[:bmap.m_eq] - problem.b + mu * state.lam_e,
                    r_p=bmap.g(x, bx) - state.s - bmap.g0, r_c=state.lam * state.s - mu)
    if not np.all(np.isfinite(res.concatenated())):
        raise FloatingPointError("non-finite residual encountered")
    return res


@dataclass(frozen=True)
class KktOperator:
    """Matrix-free doubly augmented system [[Q + 2B'D^{-1}B, B'], [B, D]].

    Q u = H u + q_diag_extra * u; B = (C; A_l; -A_u); D is diagonal.
    Immutable per IPM iteration; applications are pure.
    """

    problem: QpProblem
    q_diag_extra: np.ndarray
    d_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def m(self) -> int:
        return len(self.d_diag)

    @property
    def dim(self) -> int:
        return self.n + self.m

    def split(self, v: np.ndarray):
        return v[:self.n], v[self.n:]

    def apply_b(self, u: np.ndarray) -> np.ndarray:
        return self.problem.layout.b @ u

    def apply_bt(self, w: np.ndarray) -> np.ndarray:
        return self.problem.layout.bt @ w

    def apply_q(self, u: np.ndarray) -> np.ndarray:
        return hessian_apply(self.problem.hessian, u) + self.q_diag_extra * u


def build_operator(problem: QpProblem, state: IterateState) -> KktOperator:
    """Assemble the diagonal data of the doubly augmented operator; no matrices formed."""
    bmap = problem.layout
    m = bmap.m_rows
    return KktOperator(
        problem=problem,
        q_diag_extra=bmap.scatter_var(state.lam[m:] / state.s[m:]),
        d_diag=np.concatenate([np.full(bmap.m_eq, state.mu), state.s[:m] / state.lam[:m]]))


def apply_doubly_augmented(op: KktOperator, v: np.ndarray) -> np.ndarray:
    """One application of [[Q + 2B'D^{-1}B, B'], [B, D]] to (u, w).

    Uses exactly one B product and one B' product:
    t = B u; top = Q u + B'(2 D^{-1} t + w); bottom = t + D w.
    """
    u, w = op.split(np.asarray(v, dtype=np.float64))
    t = op.apply_b(u)
    top = op.apply_q(u) + op.apply_bt(2.0 * t / op.d_diag + w)
    bottom = t + op.d_diag * w
    return np.concatenate([top, bottom])


def jacobi_diagonal(op: KktOperator) -> np.ndarray:
    """Diagonal of the doubly augmented matrix, computed matrix-free.

    Top block: diag(Q) + 2 sum_i B_ij^2 / D_ii; the rows of A with both
    bounds finite contribute twice, once per family. Bottom block: D.
    """
    return np.concatenate([_top_diagonal(op, op.problem.layout.h_diag), op.d_diag])


def _top_diagonal(op: KktOperator, h_part: np.ndarray) -> np.ndarray:
    """h_part + q_diag_extra + diag(2B'D^{-1}B)."""
    return h_part + op.q_diag_extra + 2.0 * (op.problem.layout.bt_sq @ (1.0 / op.d_diag))


# U' diag(1/T) U is summed over row blocks of U of about 2^15 entries: the
# scaled copy of a block is 256 KB, not an n-by-k temporary, and stays in
# cache (2^15 took 12 ms at n=200000, k=20, one thread; 2^18 took 21 ms)
_GRAM_BLOCK_ENTRIES = 1 << 15


def preconditioner(op: KktOperator) -> Callable[[np.ndarray], np.ndarray]:
    """v -> M^{-1} v for PCG on the doubly augmented system.

    With (d, U, w) = ``hessian.low_rank()`` and k >= 1,
    M = blockdiag(T + U diag(w) U', D), T = d + q_diag_extra + diag(2B'D^{-1}B):
    the Jacobi top block with the low-rank part kept whole. k = 0, a T with
    an entry <= 0 (Woodbury divides by T) and a singular capacitance matrix
    get Jacobi, M = diag(jacobi_diagonal(op)) with entries <= 0 or NaN set to 1.
    """
    d, u, w = op.problem.hessian.low_rank()
    if len(w):
        # T from d directly: jacobi_diagonal - sum_j w_j u_j^2 would cancel
        t = _top_diagonal(op, d)
        if np.all(t > 0):
            try:
                return _woodbury_inverse(u, w, t, op.d_diag)
            except np.linalg.LinAlgError:
                pass  # then T + UWU' is singular too
    diag = jacobi_diagonal(op)
    inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)  # 0 for a free variable without curvature
    return lambda v: inv_diag * v


def _woodbury_inverse(u: np.ndarray, w: np.ndarray, t: np.ndarray,
                      d: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> blockdiag(diag(t) + U diag(w) U', diag(d))^{-1} v, matrix-free.

    (T + UWU')^{-1} r = y - T^{-1} U c with y = T^{-1} r and
    (I + W G) c = W U'y, G = U' T^{-1} U. The k-by-k capacitance I + WG needs
    no W^{-1}, so zero or negative weights are fine, and by Sylvester's
    determinant identity it is singular only when T + UWU' is; it is
    inverted here, once, and raises LinAlgError then. Each application
    makes two passes over U.
    """
    n, k = u.shape
    t_inv = 1.0 / t
    gram = np.zeros((k, k))
    rows = max(1, _GRAM_BLOCK_ENTRIES // k)
    for lo in range(0, n, rows):
        block = u[lo:lo + rows]
        gram += block.T @ (block * t_inv[lo:lo + rows, None])
    cap_inv = np.linalg.inv(np.eye(k) + w[:, None] * gram)

    def apply(v: np.ndarray) -> np.ndarray:
        y = v[:n] / t
        c = cap_inv @ (w * (u.T @ y))
        correction = u @ c
        correction /= t
        y -= correction
        return np.concatenate([y, v[n:] / d])

    return apply


def assemble_rhs(op: KktOperator, res: Residuals, state: IterateState) -> np.ndarray:
    """Right-hand side (r1 + 2 B' D^{-1} r2, r2) of the doubly augmented system."""
    bmap = op.problem.layout
    m = bmap.m_rows
    lam, s = state.lam, state.s
    r1 = -res.r_H - bmap.scatter_var(
        bmap.var_sign * (res.r_c[m:] / s[m:] + (lam[m:] / s[m:]) * res.r_p[m:]))
    r2 = np.concatenate([-res.r_e, -res.r_p[:m] - res.r_c[:m] / lam[:m]])
    rhs = np.concatenate([r1 + op.apply_bt(2.0 * r2 / op.d_diag), r2])
    if not np.all(np.isfinite(rhs)):
        raise FloatingPointError("non-finite right-hand side")
    return rhs


def recover_directions(op: KktOperator, dx: np.ndarray, d_lam_a: np.ndarray,
                       res: Residuals, state: IterateState) -> FullDirection:
    """Back-substitute (dx, d_lam_A) into the eliminated blocks of the full system.

    Rows of B take ds from complementarity; variable bounds take ds from the
    primal block and then d_lam from complementarity.
    """
    bmap = op.problem.layout
    m = bmap.m_rows
    lam, s = state.lam, state.s
    d_lam_rows = d_lam_a[bmap.m_eq:]
    ds_rows = -(res.r_c[:m] + s[:m] * d_lam_rows) / lam[:m]
    ds_var = bmap.var_sign * dx[bmap.var_idx] + res.r_p[m:]
    d_lam_var = -(res.r_c[m:] + lam[m:] * ds_var) / s[m:]
    direction = FullDirection(dx=dx, d_lam_e=d_lam_a[:bmap.m_eq],
                              ds=np.concatenate([ds_rows, ds_var]),
                              d_lam=np.concatenate([d_lam_rows, d_lam_var]))
    for block in direction.__dict__.values():
        if not np.all(np.isfinite(block)):
            raise FloatingPointError("non-finite direction component")
    return direction
