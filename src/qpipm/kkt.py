"""Residuals, the reduced 2x2 blocks, and the matrix-free doubly augmented operator.

The Newton system is never formed. Each operator application uses one
Hessian product, one product with B = (C; A_l; -A_u) and one with its
transpose, where A_l and A_u are the rows of A with a finite lower / upper
bound. Variable bounds enter only through diagonal terms. B, B' and diag(H)
are built once per solve (``BoundIndexMap``); per iteration only D changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .model import QpProblem, hessian_apply, hessian_diagonal, hessian_to_dense


@dataclass(frozen=True)
class BoundIndexMap:
    """What the KKT operator needs that is fixed for the whole solve.

    Indices with a finite bound, per family (infinite bounds appear nowhere);
    the CSR b = (C; A_l; -A_u), its CSR transpose bt, bt_sq = bt * bt
    elementwise, and h_diag = diag(H). Built once per solve.
    """

    lin_lower: np.ndarray
    lin_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    b: sp.csr_matrix
    bt: sp.csr_matrix
    bt_sq: sp.csr_matrix
    h_diag: np.ndarray

    @classmethod
    def from_problem(cls, problem: QpProblem) -> "BoundIndexMap":
        lin_lower = np.where(np.isfinite(problem.lin_bounds.lower))[0]
        lin_upper = np.where(np.isfinite(problem.lin_bounds.upper))[0]
        a = problem.a.csr
        b = sp.vstack([problem.c.csr, a[lin_lower], -a[lin_upper]], format="csr")
        bt = b.T.tocsr()
        return cls(
            lin_lower=lin_lower, lin_upper=lin_upper,
            var_lower=np.where(np.isfinite(problem.var_bounds.lower))[0],
            var_upper=np.where(np.isfinite(problem.var_bounds.upper))[0],
            b=b, bt=bt, bt_sq=bt.multiply(bt).tocsr(),
            h_diag=hessian_diagonal(problem.hessian),
        )

    def split_rows(self, w: np.ndarray):
        """The (C, A_l, A_u) parts of a vector indexed by the rows of b."""
        m_l = self.m_lin_lower
        m_e = self.b.shape[0] - m_l - self.m_lin_upper
        return w[:m_e], w[m_e:m_e + m_l], w[m_e + m_l:]

    @property
    def m_lin_lower(self):
        return len(self.lin_lower)

    @property
    def m_lin_upper(self):
        return len(self.lin_upper)


@dataclass
class IterateState:
    """Primal point, slacks, multipliers and barrier parameter.

    Slacks and inequality multipliers are strictly positive throughout; the
    equality multiplier lam_e is sign-unrestricted.
    """

    x: np.ndarray
    s_lA: np.ndarray
    s_uA: np.ndarray
    s_lx: np.ndarray
    s_ux: np.ndarray
    lam_e: np.ndarray
    lam_lA: np.ndarray
    lam_uA: np.ndarray
    lam_lx: np.ndarray
    lam_ux: np.ndarray
    mu: float

    def min_interior(self) -> float:
        """Smallest slack or inequality-multiplier entry (inf if none exist)."""
        parts = [self.s_lA, self.s_uA, self.s_lx, self.s_ux,
                 self.lam_lA, self.lam_uA, self.lam_lx, self.lam_ux]
        mins = [v.min() for v in parts if len(v)]
        return min(mins) if mins else np.inf


@dataclass(frozen=True)
class Residuals:
    """The ten residual blocks of the perturbed optimality conditions."""

    r_H: np.ndarray
    r_e: np.ndarray
    r_lA: np.ndarray
    r_uA: np.ndarray
    r_lx: np.ndarray
    r_ux: np.ndarray
    r_c1: np.ndarray
    r_c2: np.ndarray
    r_c3: np.ndarray
    r_c4: np.ndarray

    def concatenated(self) -> np.ndarray:
        return np.concatenate([self.r_H, self.r_e, self.r_lA, self.r_uA,
                               self.r_lx, self.r_ux, self.r_c1, self.r_c2,
                               self.r_c3, self.r_c4])

    def norm(self) -> float:
        """2-norm of the full Newton right-hand side."""
        return float(np.linalg.norm(self.concatenated()))


@dataclass(frozen=True)
class FullDirection:
    dx: np.ndarray
    d_lam_e: np.ndarray
    d_lam_lA: np.ndarray
    d_lam_uA: np.ndarray
    d_lam_lx: np.ndarray
    d_lam_ux: np.ndarray
    ds_lA: np.ndarray
    ds_uA: np.ndarray
    ds_lx: np.ndarray
    ds_ux: np.ndarray


def compute_residuals(problem: QpProblem, state: IterateState,
                      bmap: BoundIndexMap | None = None) -> Residuals:
    """Residual blocks of the perturbed optimality conditions at the iterate."""
    if bmap is None:
        bmap = BoundIndexMap.from_problem(problem)
    x, mu = state.x, state.mu
    cx, a_l_x, neg_a_u_x = bmap.split_rows(bmap.b @ x)

    r_H = hessian_apply(problem.hessian, x) + problem.p \
        - bmap.bt @ np.concatenate([state.lam_e, state.lam_lA, state.lam_uA])
    r_H[bmap.var_lower] -= state.lam_lx
    r_H[bmap.var_upper] += state.lam_ux

    r_e = cx - problem.b + mu * state.lam_e
    r_lA = a_l_x - state.s_lA - problem.lin_bounds.lower[bmap.lin_lower]
    r_uA = problem.lin_bounds.upper[bmap.lin_upper] + neg_a_u_x - state.s_uA
    r_lx = x[bmap.var_lower] - state.s_lx - problem.var_bounds.lower[bmap.var_lower]
    r_ux = problem.var_bounds.upper[bmap.var_upper] - x[bmap.var_upper] - state.s_ux

    res = Residuals(
        r_H=r_H, r_e=r_e, r_lA=r_lA, r_uA=r_uA, r_lx=r_lx, r_ux=r_ux,
        r_c1=state.lam_lA * state.s_lA - mu,
        r_c2=state.lam_uA * state.s_uA - mu,
        r_c3=state.lam_lx * state.s_lx - mu,
        r_c4=state.lam_ux * state.s_ux - mu,
    )
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
    q_extra = np.zeros(problem.n)
    np.add.at(q_extra, bmap.var_lower, state.lam_lx / state.s_lx)
    np.add.at(q_extra, bmap.var_upper, state.lam_ux / state.s_ux)
    d_diag = np.concatenate([
        np.full(problem.m_eq, state.mu),
        state.s_lA / state.lam_lA,
        state.s_uA / state.lam_uA,
    ])
    return KktOperator(problem=problem, bmap=bmap, q_diag_extra=q_extra,
                       d_diag=d_diag)


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
    bmap = op.bmap
    top = bmap.h_diag + op.q_diag_extra + 2.0 * (bmap.bt_sq @ (1.0 / op.d_diag))
    return np.concatenate([top, op.d_diag])


def assemble_rhs(op: KktOperator, res: Residuals, state: IterateState) -> np.ndarray:
    """Right-hand side (r1 + 2 B' D^{-1} r2, r2) of the doubly augmented system."""
    r1 = -res.r_H.copy()
    r1[op.bmap.var_lower] += -res.r_c3 / state.s_lx \
        - (state.lam_lx / state.s_lx) * res.r_lx
    r1[op.bmap.var_upper] += res.r_c4 / state.s_ux \
        + (state.lam_ux / state.s_ux) * res.r_ux
    r2 = np.concatenate([
        -res.r_e,
        -res.r_lA - res.r_c1 / state.lam_lA,
        -res.r_uA - res.r_c2 / state.lam_uA,
    ])
    rhs = np.concatenate([r1 + op.apply_bt(2.0 * r2 / op.d_diag), r2])
    if not np.all(np.isfinite(rhs)):
        raise FloatingPointError("non-finite right-hand side")
    return rhs


def recover_directions(op: KktOperator, dx: np.ndarray, d_lam_a: np.ndarray,
                       res: Residuals, state: IterateState) -> FullDirection:
    """Back-substitute (dx, d_lam_A) into the eliminated blocks of the full system."""
    d_lam_e, d_lam_lA, d_lam_uA = op.bmap.split_rows(d_lam_a)

    ds_lA = -(res.r_c1 + state.s_lA * d_lam_lA) / state.lam_lA
    ds_uA = -(res.r_c2 + state.s_uA * d_lam_uA) / state.lam_uA
    ds_lx = dx[op.bmap.var_lower] + res.r_lx
    ds_ux = res.r_ux - dx[op.bmap.var_upper]
    d_lam_lx = -(res.r_c3 + state.lam_lx * ds_lx) / state.s_lx
    d_lam_ux = -(res.r_c4 + state.lam_ux * ds_ux) / state.s_ux

    direction = FullDirection(
        dx=dx, d_lam_e=d_lam_e, d_lam_lA=d_lam_lA, d_lam_uA=d_lam_uA,
        d_lam_lx=d_lam_lx, d_lam_ux=d_lam_ux,
        ds_lA=ds_lA, ds_uA=ds_uA, ds_lx=ds_lx, ds_ux=ds_ux,
    )
    for block in direction.__dict__.values():
        if not np.all(np.isfinite(block)):
            raise FloatingPointError("non-finite direction component")
    return direction


DENSE_ORACLE_CAP = 2000


def assemble_dense(op: KktOperator, cap: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Dense materialization of the doubly augmented system (test oracle only)."""
    q, b, d = _dense_blocks(op, cap)
    k = np.zeros((op.dim, op.dim))
    n = op.n
    k[:n, :n] = q + 2.0 * b.T @ (b / d[:, None])
    k[:n, n:] = b.T
    k[n:, :n] = b
    k[n:, n:] = np.diag(d)
    return k


def assemble_dense_augmented(op: KktOperator, cap: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Dense materialization of the unsymmetric reduced system [[Q, -B'], [B, D]]."""
    q, b, d = _dense_blocks(op, cap)
    k = np.zeros((op.dim, op.dim))
    n = op.n
    k[:n, :n] = q
    k[:n, n:] = -b.T
    k[n:, :n] = b
    k[n:, n:] = np.diag(d)
    return k


def _dense_blocks(op: KktOperator, cap: int):
    if op.dim > cap:
        raise ValueError(f"dense oracle cap exceeded: dimension {op.dim} > {cap}")
    q = hessian_to_dense(op.problem.hessian) + np.diag(op.q_diag_extra)
    return q, op.bmap.b.toarray(), op.d_diag
