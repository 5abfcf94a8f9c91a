"""Residuals, the reduced 2x2 blocks, and the matrix-free doubly augmented operator.

Every inequality is g(x) - s = g0 with slack s > 0 and multiplier lam > 0,
stacked in one order: A rows with a finite lower bound, A rows with a finite
upper bound, lower-bounded variables, upper-bounded variables. The first
m_rows entries are the inequality rows of B = (C; A_l; -A_u) and go into D;
the rest are var_sign * x[var_idx] (+1 lower, -1 upper) and go into Q's
diagonal. g0 = (l, -u, lx, -ux) on the finite entries. The Newton system is
never formed: each operator application uses one product with H, B and B'.
B and B' are built once per problem (``QpProblem.layout``). The PCG
preconditioner is M = blockdiag(T + V S V', D), T diagonal, applied with the
Woodbury identity: V holds the Hessian's low-rank term and the dominant rows
of B, and T the rest of the top block cut to its diagonal. V may be empty,
and M is then Jacobi; when Woodbury cannot be applied, V is empty and T is
the full diagonal. The low-rank term's Gram U' T^{-1} U comes from
``QpProblem.low_rank_gram``, which reads only the rows of U whose diagonal
entry moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import QpProblem, _positive_inverse, hessian_apply, hessian_diagonal


def _multiplier_view(family: int) -> property:
    def view(state: "IterateState") -> np.ndarray:
        out = np.split(state.lam, state.splits)[family]
        out.flags.writeable = False
        return out
    return property(view)


@dataclass(frozen=True)
class IterateState:
    """Primal point, multipliers, slacks and barrier parameter.

    s and lam are stacked as in the module docstring and stay strictly
    positive; splits as in ``BoundIndexMap``. lam_e is sign-unrestricted.
    lam_lA, lam_uA, lam_lx and lam_ux are read-only views of lam per family.
    Immutable: mu is set by the code that builds an iterate
    (``ipm.initialize``, ``ipm.apply_step``), and a step makes a new one.
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
    """Stationarity r_H, equality r_e = C x - b and stacked r_p = g(x) - s - g0;
    each Newton solve gets its complementarity block r_c as an argument."""

    r_H: np.ndarray
    r_e: np.ndarray
    r_p: np.ndarray


@dataclass(frozen=True)
class FullDirection:
    dx: np.ndarray
    d_lam_e: np.ndarray
    ds: np.ndarray
    d_lam: np.ndarray


def compute_residuals(problem: QpProblem, state: IterateState) -> Residuals:
    """The residual blocks at the iterate; FloatingPointError if not finite.

    r_e is C x - b itself: mu regularizes the equality rows in D
    (``build_operator``) only, so the stopping test bounds C x - b."""
    bmap = problem.layout
    x, m = state.x, bmap.m_rows
    r_H = hessian_apply(problem.hessian, x) + problem.p
    bx = np.zeros(0)
    if bmap.m:  # otherwise B and B' make no product
        bx = bmap.b @ x
        r_H -= bmap.bt @ np.concatenate([state.lam_e, state.lam[:m]])
    r_H -= bmap.scatter_var(bmap.var_sign * state.lam[m:])
    res = Residuals(r_H=r_H, r_e=bx[:bmap.m_eq] - problem.b,
                    r_p=bmap.g(x, bx) - state.s - bmap.g0)
    if not all(np.all(np.isfinite(block)) for block in (res.r_H, res.r_e, res.r_p)):
        raise FloatingPointError("non-finite residual encountered")
    return res


@dataclass(frozen=True)
class KktOperator:
    """Matrix-free doubly augmented system [[Q + 2B'D^{-1}B, B'], [B, D]]
    at the iterate ``state`` it was built from.

    Q u = H u + q_diag_extra * u; B = (C; A_l; -A_u); D is diagonal.
    bound_ratio is lam/s on the variable bounds (scattered, it is
    q_diag_extra). ``assemble_rhs`` and ``recover_directions`` read the
    iterate from here, so a Newton system has one iterate. Immutable per
    IPM iteration; applications are pure.
    """

    problem: QpProblem
    state: IterateState
    bound_ratio: np.ndarray
    q_diag_extra: np.ndarray
    d_diag: np.ndarray

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def m(self) -> int:
        return self.problem.layout.m

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
    """Assemble the diagonal data of the doubly augmented operator at ``state``;
    no matrices formed."""
    bmap = problem.layout
    m = bmap.m_rows
    bound_ratio = state.lam[m:] / state.s[m:]
    return KktOperator(
        problem=problem, state=state, bound_ratio=bound_ratio,
        q_diag_extra=bmap.scatter_var(bound_ratio),
        d_diag=np.concatenate([np.full(bmap.m_eq, state.mu), state.s[:m] / state.lam[:m]]))


def apply_doubly_augmented(op: KktOperator, v: np.ndarray) -> np.ndarray:
    """One application of [[Q + 2B'D^{-1}B, B'], [B, D]] to (u, w).

    Uses exactly one B product and one B' product:
    t = B u; top = Q u + B'(2 D^{-1} t + w); bottom = t + D w.
    When B is empty (m = 0) it is Q u, with neither.
    """
    u, w = op.split(np.asarray(v, dtype=np.float64))
    if op.m == 0:
        return op.apply_q(u)
    t = op.apply_b(u)
    top = op.apply_q(u) + op.apply_bt(2.0 * t / op.d_diag + w)
    bottom = t + op.d_diag * w
    return np.concatenate([top, bottom])


def jacobi_diagonal(op: KktOperator) -> np.ndarray:
    """Diagonal of the doubly augmented matrix, computed matrix-free.

    Top block: diag(Q) + 2 sum_i B_ij^2 / D_ii, diag(H) computed per call;
    the rows of A with both bounds finite contribute twice. Bottom block: D.
    """
    top = hessian_diagonal(op.problem.hessian) + op.q_diag_extra \
        + 2.0 * (op.problem.layout.bt_sq @ (1.0 / op.d_diag))
    return np.concatenate([top, op.d_diag])


# At most this many rows of B are kept whole in the preconditioner; the rest
# fold into its diagonal. The capacitance matrix and its inverse are then at
# most (k + 1024)^2 doubles each, about 17 MB together for k = 20.
_MAX_KEPT_ROWS = 1024


def preconditioner(op: KktOperator) -> Callable[[np.ndarray], np.ndarray]:
    """v -> M^{-1} v for PCG on the doubly augmented system, matrix-free.

    M = blockdiag(T + V S V', D) with T diagonal; V may be empty. With
    (d, U, w) = ``hessian.low_rank()``, V = [U, B_k'] and S = diag(w, 2/D_k):
    the Hessian's low-rank term and the dominant rows B_k of B are kept
    whole, every other term of the top block Q + 2B'D^{-1}B is cut to its
    diagonal T. Row i is dominant when (2/D_i) max_j B_ij^2 / T0_j > 1,
    T0 = d + q_diag_extra, i.e. when its term outweighs a diagonal entry
    without any B row's term; at most ``_MAX_KEPT_ROWS`` rows are kept,
    those with the largest ratio. T = T0 + diag(2B'D^{-1}B) over the other
    rows. When T has an entry <= 0 (Woodbury divides by T) or the
    capacitance matrix below is singular, V is empty and (T, D) is
    ``jacobi_diagonal(op)``, entries <= 0 or NaN set to 1.

    By the Woodbury identity (T + VSV')^{-1} r = y - T^{-1} V c with
    y = T^{-1} r and Cap c = (w U'y, B_k y), where G = V' T^{-1} V
    (G_uu = ``QpProblem.low_rank_gram(T)``) and
    Cap = [[I + W G_uu, W G_ub], [G_bu, D_k/2 + G_bb]] (I + SG with its B_k
    rows scaled by D_k/2). Cap needs neither W^{-1} nor 2/D_k, so zero or
    negative weights and D_k -> 0 are fine, and by Sylvester's determinant
    identity it is singular only when T + VSV' is. It is inverted once per
    build; each application makes two passes over U and one product each
    with B_k and B_k'. With V empty M is Jacobi, and an application makes none.

    When B is empty (m = 0, only variable bounds) and H = diag(d) + U diag(w) U'
    (a ``QuasiNewtonHessian`` or a diagonal ``SparseHessian``), M = Q, the
    whole system: M^{-1} rhs then solves it up to rounding.
    """
    layout, n = op.problem.layout, op.n
    d, u, w = op.problem.hessian.low_rank()
    t, d_inv = d + op.q_diag_extra, 1.0 / op.d_diag
    kept = np.zeros(0, dtype=np.intp)
    if op.m:
        inv_d = d_inv.copy()
        kept = _dominant_rows(layout.b, t, inv_d)
        inv_d[kept] = 0.0
        # the folded rows' terms added directly: subtracting the kept rows'
        # terms from jacobi_diagonal would cancel
        t += 2.0 * (layout.bt_sq @ inv_d)
    k, m_k = u.shape[1], len(kept)
    cap_inv = None
    if np.all(t > 0):
        t_inv = 1.0 / t
        cap = np.zeros((k + m_k, k + m_k))
        cap[:k, :k] = w[:, None] * op.problem.low_rank_gram(t)
        if m_k:
            b_k = layout.b[kept]
            # B_k' as columns of B': transposing B_k would build a new matrix
            bt_k = layout.bt[:, kept]
            scaled = b_k.copy()
            scaled.data *= t_inv[scaled.indices]  # B_k T^{-1}
            g_bu = scaled @ u
            cap[:k, k:] = w[:, None] * g_bu.T
            cap[k:, :k] = g_bu
            cap[k:, k:] = (scaled @ bt_k).toarray()
            cap[k + np.arange(m_k), k + np.arange(m_k)] += 0.5 * op.d_diag[kept]
        cap[np.arange(k), np.arange(k)] += 1.0
        try:
            cap_inv = np.linalg.inv(cap)
        except np.linalg.LinAlgError:
            pass  # then T + VSV' is singular too
    if cap_inv is None:  # V empty on the full diagonal, clamped
        diag = jacobi_diagonal(op)  # 0 for a free variable without curvature
        inv_diag = 1.0 / np.where(diag > 0, diag, 1.0)
        t_inv, d_inv, k, m_k = inv_diag[:n], inv_diag[n:], 0, 0

    def apply(v: np.ndarray) -> np.ndarray:
        y = t_inv * v[:n]
        if k or m_k:
            c = cap_inv @ np.concatenate([w * (u.T @ y), b_k @ y if m_k else ()])
            correction = u @ c[:k]
            if m_k:
                correction += bt_k @ c[k:]
            correction *= t_inv
            y -= correction
        return np.concatenate([y, d_inv * v[n:]])

    return apply


def _dominant_rows(b, t0: np.ndarray, inv_d: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows i of b with 2 inv_d_i max_j b_ij^2 / t0_j > 1,
    the ``_MAX_KEPT_ROWS`` largest if more. Columns with t0_j <= 0 are skipped."""
    inv_t0 = _positive_inverse(t0)
    weighted = b.copy()
    # entries are >= 0: implicit zeros leave a row's maximum, an empty row's is 0
    weighted.data = b.data * b.data * inv_t0[b.indices]
    ratio = 2.0 * inv_d * weighted.max(axis=1).toarray().ravel()
    kept = np.flatnonzero(ratio > 1.0)
    if len(kept) > _MAX_KEPT_ROWS:
        strongest = np.argpartition(ratio[kept], -_MAX_KEPT_ROWS)[-_MAX_KEPT_ROWS:]
        kept = np.sort(kept[strongest])
    return kept


def assemble_rhs(op: KktOperator, res: Residuals, r_c: np.ndarray) -> np.ndarray:
    """Right-hand side (r1 + 2 B' D^{-1} r2, r2) of the doubly augmented system
    for the residuals ``res`` and the Newton step's S dlam + Lam ds = -r_c,
    with s and lam of the operator's iterate."""
    bmap = op.problem.layout
    m = bmap.m_rows
    lam, s = op.state.lam, op.state.s
    rhs = -res.r_H - bmap.scatter_var(
        bmap.var_sign * (r_c[m:] / s[m:] + op.bound_ratio * res.r_p[m:]))
    if op.m:  # otherwise rhs is r1 alone
        r2 = np.concatenate([-res.r_e, -res.r_p[:m] - r_c[:m] / lam[:m]])
        rhs = np.concatenate([rhs + op.apply_bt(2.0 * r2 / op.d_diag), r2])
    if not np.all(np.isfinite(rhs)):
        raise FloatingPointError("non-finite right-hand side")
    return rhs


def recover_directions(op: KktOperator, dx: np.ndarray, d_lam_a: np.ndarray,
                       res: Residuals, r_c: np.ndarray) -> FullDirection:
    """Back-substitute (dx, d_lam_A) into the eliminated blocks of the full system
    at the operator's iterate.

    Rows of B take ds from complementarity (r_c as in ``assemble_rhs``);
    variable bounds take ds from the primal block and then d_lam from it.
    """
    bmap = op.problem.layout
    m = bmap.m_rows
    lam, s = op.state.lam, op.state.s
    d_lam_rows = d_lam_a[bmap.m_eq:]
    ds_rows = -(r_c[:m] + s[:m] * d_lam_rows) / lam[:m]
    ds_var = bmap.var_sign * dx[bmap.var_idx] + res.r_p[m:]
    d_lam_var = -(r_c[m:] + lam[m:] * ds_var) / s[m:]
    return FullDirection(dx=dx, d_lam_e=d_lam_a[:bmap.m_eq],
                         ds=np.concatenate([ds_rows, ds_var]),
                         d_lam=np.concatenate([d_lam_rows, d_lam_var]))
