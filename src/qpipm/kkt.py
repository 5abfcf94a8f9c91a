"""Residuals, the reduced 2x2 blocks, and the matrix-free doubly augmented operator.

Every inequality is g(x) - s = g0 with slack s > 0 and multiplier lam > 0,
stacked in one order: A rows with a finite lower bound, A rows with a finite
upper bound, lower-bounded variables, upper-bounded variables. The first
m_rows entries are the inequality rows of B = (C; A_l; -A_u) and go into D;
the rest are var_sign * x[var_idx] (+1 lower, -1 upper) and go into Q's
diagonal. g0 = (l, -u, lx, -ux) on the finite entries. The Newton system is
never formed: each operator application uses one product with H, B and B'.
B, B' and diag(H) are built once per solve (``BoundIndexMap``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .model import QpProblem, QuasiNewtonHessian, hessian_apply, hessian_diagonal


@dataclass(frozen=True)
class BoundIndexMap:
    """What the KKT operator needs that is fixed for the whole solve.

    The stacked layout of the module docstring: splits are the ends of the
    A-lower, A-upper and variable-lower blocks (splits[1] = m_rows); var_idx,
    var_sign and g0 as there. b = (C; A_l; -A_u) in CSR, bt its CSR transpose,
    bt_sq = bt * bt elementwise, h_diag = diag(H). The only code that knows
    the four bound families.
    """

    m_eq: int
    splits: tuple[int, int, int]
    var_idx: np.ndarray
    var_sign: np.ndarray
    g0: np.ndarray
    b: sp.csr_matrix
    bt: sp.csr_matrix
    bt_sq: sp.csr_matrix
    h_diag: np.ndarray

    @classmethod
    def from_problem(cls, problem: QpProblem) -> "BoundIndexMap":
        lin, var = problem.lin_bounds, problem.var_bounds
        lin_lower = np.where(np.isfinite(lin.lower))[0]
        lin_upper = np.where(np.isfinite(lin.upper))[0]
        var_lower = np.where(np.isfinite(var.lower))[0]
        var_upper = np.where(np.isfinite(var.upper))[0]
        a = problem.a.csr
        b = sp.vstack([problem.c.csr, a[lin_lower], -a[lin_upper]], format="csr")
        bt = b.T.tocsr()
        m_rows = len(lin_lower) + len(lin_upper)
        return cls(
            m_eq=problem.m_eq,
            splits=(len(lin_lower), m_rows, m_rows + len(var_lower)),
            var_idx=np.concatenate([var_lower, var_upper]),
            var_sign=np.concatenate([np.ones(len(var_lower)),
                                     -np.ones(len(var_upper))]),
            g0=np.concatenate([lin.lower[lin_lower], -lin.upper[lin_upper],
                               var.lower[var_lower], -var.upper[var_upper]]),
            b=b, bt=bt, bt_sq=bt.multiply(bt).tocsr(),
            h_diag=hessian_diagonal(problem.hessian),
        )

    @property
    def m_rows(self) -> int:
        return self.splits[1]

    def g(self, x: np.ndarray, bx: np.ndarray) -> np.ndarray:
        """The stacked inequality values g(x), given bx = b @ x."""
        return np.concatenate([bx[self.m_eq:], self.var_sign * x[self.var_idx]])

    def scatter_var(self, w: np.ndarray) -> np.ndarray:
        """w summed into an n-vector at var_idx. With P x = var_sign * x[var_idx],
        P'v = scatter_var(var_sign * v) and P' diag(w) P = diag(scatter_var(w))."""
        # astype: bincount gives integer zeros when there are no variable bounds
        n = self.b.shape[1]
        return np.bincount(self.var_idx, w, minlength=n).astype(np.float64, copy=False)


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


def compute_residuals(problem: QpProblem, state: IterateState,
                      bmap: BoundIndexMap | None = None) -> Residuals:
    """Residual blocks of the perturbed optimality conditions at the iterate."""
    if bmap is None:
        bmap = BoundIndexMap.from_problem(problem)
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

    Q u = H u + q_diag_extra * u; B = bmap.b = (C; A_l; -A_u); D is diagonal.
    Immutable per IPM iteration; applications are pure.
    """

    problem: QpProblem
    bmap: BoundIndexMap
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
        return self.bmap.b @ u

    def apply_bt(self, w: np.ndarray) -> np.ndarray:
        return self.bmap.bt @ w

    def apply_q(self, u: np.ndarray) -> np.ndarray:
        return hessian_apply(self.problem.hessian, u) + self.q_diag_extra * u


def build_operator(problem: QpProblem, state: IterateState,
                   bmap: BoundIndexMap | None = None) -> KktOperator:
    """Assemble the diagonal data of the doubly augmented operator; no matrices formed."""
    if bmap is None:
        bmap = BoundIndexMap.from_problem(problem)
    m = bmap.m_rows
    return KktOperator(
        problem=problem, bmap=bmap,
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
    return np.concatenate([_top_diagonal(op, op.bmap.h_diag), op.d_diag])


def _top_diagonal(op: KktOperator, h_part: np.ndarray) -> np.ndarray:
    """h_part + q_diag_extra + diag(2B'D^{-1}B)."""
    return h_part + op.q_diag_extra + 2.0 * (op.bmap.bt_sq @ (1.0 / op.d_diag))


# U' diag(1/T) U is summed over row blocks of U of about 2^15 entries: the
# scaled copy of a block is 256 KB, not an n-by-k temporary, and stays in
# cache (2^15 took 12 ms at n=200000, k=20, one thread; 2^18 took 21 ms)
_GRAM_BLOCK_ENTRIES = 1 << 15


def preconditioner(op: KktOperator) -> Callable[[np.ndarray], np.ndarray]:
    """v -> M^{-1} v for PCG on the doubly augmented system.

    For a quasi-Newton Hessian H = H0 + U diag(w) U' with k >= 1,
    M = blockdiag(T + U diag(w) U', D) with T = H0 + q_diag_extra
    + diag(2B'D^{-1}B): the Jacobi top block with the low-rank part kept
    whole, so with B empty the top block is Q itself. Every other Hessian,
    k = 0, a T with an entry <= 0 (Woodbury divides by T) and a singular
    capacitance matrix get Jacobi: M = diag(jacobi_diagonal(op)).
    """
    h = op.problem.hessian
    if isinstance(h, QuasiNewtonHessian) and len(h.w):
        # T directly: jacobi_diagonal - sum_j w_j u_j^2 would cancel
        t = _top_diagonal(op, h.h0_diag)
        if np.all(t > 0):
            try:
                return _woodbury_inverse(h.u, h.w, t, op.d_diag)
            except np.linalg.LinAlgError:
                pass  # then T + UWU' is singular too
    inv_diag = 1.0 / jacobi_diagonal(op)
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
    bmap, m = op.bmap, op.bmap.m_rows
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
    bmap, m = op.bmap, op.bmap.m_rows
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
