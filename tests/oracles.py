"""Independent dense transcriptions and random instance generators.

Everything here is deliberately coded from the dense block formulas, not by
calling the package's matrix-free paths, so the tests compare two routes.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from qpipm.kkt import FullDirection, IterateState, KktOperator
from qpipm.linalg import PcgBreakdownError, PcgResult
from qpipm.model import (Bounds, DimensionError, QpProblem, QuasiNewtonHessian,
                         SparseHessian, SparseMatrix)


def spmv(m: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """y = M x."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) != m.shape[1]:
        raise DimensionError(f"vector length {len(x)} != column count {m.shape[1]}")
    return m @ x


def spmv_transpose(m: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """y = M' x."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) != m.shape[0]:
        raise DimensionError(f"vector length {len(x)} != row count {m.shape[0]}")
    return m.T @ x


def reference_pcg(apply_op, apply_prec, rhs, cfg, x0=None) -> PcgResult:
    """The out-of-place PCG loop that ``qpipm.linalg.pcg`` must reproduce bit for bit."""
    rhs = np.asarray(rhs, dtype=np.float64)
    threshold = cfg.tol * np.linalg.norm(rhs)

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

    z = apply_prec(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, cfg.max_iters + 1):
        op_p = apply_op(p)
        pap = float(p @ op_p)
        if pap <= 0:
            raise PcgBreakdownError(PcgResult(best_x, k - 1, best_rnorm, False))
        alpha = rz / pap
        x += alpha * p
        r -= alpha * op_p
        rnorm = np.linalg.norm(r)
        if rnorm < best_rnorm:
            best_x, best_rnorm = x.copy(), rnorm
        if rnorm <= threshold:
            true_r = rhs - apply_op(x)
            true_norm = np.linalg.norm(true_r)
            if true_norm <= threshold:
                return PcgResult(x, k, true_norm, True)
            # recurrence drifted: restart from the explicit residual
            r = true_r
            rnorm = true_norm
            if rnorm < best_rnorm:
                best_x, best_rnorm = x.copy(), rnorm
            z = apply_prec(r)
            p = z.copy()
            rz = float(r @ z)
            continue
        z = apply_prec(r)
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p

    true_norm = np.linalg.norm(rhs - apply_op(best_x))
    return PcgResult(best_x, cfg.max_iters, true_norm, true_norm <= threshold)


def recording_identity(residuals: list):
    """The identity preconditioner, appending a copy of each residual r_k it
    is applied to (``pcg`` updates r in place). PCG applies it to r_0, ...,
    r_{k-1} in k steps, and r_k = rhs - Op x_k determines the iterate x_k."""
    def apply_prec(r):
        residuals.append(r.copy())
        return r
    return apply_prec


class SingularMatrixError(RuntimeError):
    """Pivot magnitude below the singularity threshold in dense_solve."""


def dense_solve(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting.

    Signals singularity when a pivot magnitude falls below 1e-14 * max|m|.
    Intended as the small-scale reference oracle, not a production path.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("matrix must be square")
    n = a.shape[0]
    x = np.array(rhs, dtype=np.float64)
    if len(x) != n:
        raise DimensionError("right-hand side length mismatch")
    if n == 0:
        return x
    max_abs = np.abs(a).max()
    if max_abs == 0.0:
        raise SingularMatrixError("zero matrix")
    pivot_tol = 1e-14 * max_abs

    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) < pivot_tol:
            raise SingularMatrixError(f"pivot {a[piv, k]:.3e} below threshold at column {k}")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            x[[k, piv]] = x[[piv, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(factors, a[k, k + 1:])
        x[k + 1:] -= factors * x[k]

    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def sparse_from_dense(a) -> sp.csr_matrix:
    """The nonzero entries of a dense matrix, as a canonical CSR matrix."""
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(a)
    return SparseMatrix.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])


def sparse_to_dense(m: sp.csr_matrix) -> np.ndarray:
    """Dense materialization by direct scatter of the CSR arrays (independent
    of scipy's conversions)."""
    out = np.zeros(m.shape)
    for i in range(m.shape[0]):
        lo, hi = m.indptr[i], m.indptr[i + 1]
        out[i, m.indices[lo:hi]] = m.data[lo:hi]
    return out


def dense_hessian(h) -> np.ndarray:
    """Dense materialization of any Hessian variant."""
    if isinstance(h, SparseHessian):
        return sparse_to_dense(h.m)
    return np.diag(h.h0_diag) + h.u @ np.diag(h.w) @ h.u.T


def signed_kernel_matrix(h) -> np.ndarray:
    """Dense H = yy'∘K of an ``svm.SignedKernel``, K rebuilt symmetric from
    the upper triangle of ``h.k``, the only part the class reads."""
    return np.outer(h.y, h.y) * (np.triu(h.k) + np.triu(h.k, 1).T)


def sparse_dot(x: sp.csr_matrix, y: sp.csr_matrix) -> float:
    """Dot product of two one-row canonical CSR matrices (any widths), by
    merged iteration over the two index lists."""
    i = j = 0
    acc = 0.0
    while i < len(x.indices) and j < len(y.indices):
        if x.indices[i] == y.indices[j]:
            acc += x.data[i] * y.data[j]
            i += 1
            j += 1
        elif x.indices[i] < y.indices[j]:
            i += 1
        else:
            j += 1
    return acc


def rbf_kernel(xi: sp.csr_matrix, xj: sp.csr_matrix, sigma: float) -> float:
    """exp(-||xi - xj||^2 / (2 sigma)) of two one-row CSR samples, one pair
    at a time."""
    d2 = sparse_dot(xi, xi) + sparse_dot(xj, xj) - 2.0 * sparse_dot(xi, xj)
    return math.exp(-max(d2, 0.0) / (2.0 * sigma))


DENSE_ORACLE_CAP = 2000


def assemble_dense(op: KktOperator, cap: int = DENSE_ORACLE_CAP) -> np.ndarray:
    """Dense materialization of the doubly augmented system."""
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
    q = dense_hessian(op.problem.hessian) + np.diag(op.q_diag_extra)
    return q, op.problem.layout.b.toarray(), op.d_diag


def selection(indices, n) -> np.ndarray:
    """Rows of the identity picked out by the index list."""
    p = np.zeros((len(indices), n))
    p[np.arange(len(indices)), indices] = 1.0
    return p


FAMILIES = ("lA", "uA", "lx", "ux")


def make_state(x, mu, lam_e=(), **families) -> IterateState:
    """An IterateState from per-family blocks s_lA, lam_lA, ..., s_ux, lam_ux.

    Absent families are empty.
    """
    s, lam = ([np.asarray(families.get(f"{name}_{fam}", ()), dtype=float)
               for fam in FAMILIES] for name in ("s", "lam"))
    ends = np.cumsum([len(v) for v in s])
    return IterateState(x=np.asarray(x, dtype=float),
                        lam_e=np.asarray(lam_e, dtype=float),
                        s=np.concatenate(s), lam=np.concatenate(lam), mu=mu,
                        splits=tuple(int(e) for e in ends[:3]))


def centering_target(state: IterateState) -> np.ndarray:
    """The complementarity block lam * s - mu that ``DenseParts`` builds its
    systems with, for ``assemble_rhs`` and ``recover_directions``."""
    return state.lam * state.s - state.mu


def families(state: IterateState, ends=None) -> SimpleNamespace:
    """x, lam_e, mu and the per-family blocks s_lA, ..., lam_ux of a state.

    ends: where the lA, uA and lx blocks end (default: state.splits).
    """
    ends = list(state.splits if ends is None else ends)
    out = SimpleNamespace(x=state.x, lam_e=state.lam_e, mu=state.mu)
    for name in ("s", "lam"):
        for fam, block in zip(FAMILIES, np.split(getattr(state, name), ends)):
            setattr(out, f"{name}_{fam}", block)
    return out


class DenseParts:
    """All dense matrices of one (problem, state) pair, built block by block."""

    def __init__(self, problem: QpProblem, state: IterateState):
        lin, var = problem.lin_bounds, problem.var_bounds
        lin_lower, lin_upper, var_lower, var_upper = (
            np.where(np.isfinite(v))[0]
            for v in (lin.lower, lin.upper, var.lower, var.upper))
        self.ends = np.cumsum([len(lin_lower), len(lin_upper), len(var_lower)])
        self.problem, self.state = problem, families(state, self.ends)
        self.n = problem.n
        self.h = dense_hessian(problem.hessian)
        a_dense = sparse_to_dense(problem.a)
        self.a_l = a_dense[lin_lower]
        self.a_u = a_dense[lin_upper]
        self.c = sparse_to_dense(problem.c)
        self.p_l = selection(var_lower, self.n)
        self.p_u = selection(var_upper, self.n)
        self.l_a = lin.lower[lin_lower]
        self.u_a = lin.upper[lin_upper]
        self.l_x = var.lower[var_lower]
        self.u_x = var.upper[var_upper]
        self.sizes = (self.n, len(self.l_a), len(self.u_a),
                      len(self.l_x), len(self.u_x), problem.m_eq)

    def residual_blocks(self):
        st = self.state
        r_h = (self.h @ st.x + self.problem.p - self.a_l.T @ st.lam_lA
               + self.a_u.T @ st.lam_uA - self.p_l.T @ st.lam_lx
               + self.p_u.T @ st.lam_ux - self.c.T @ st.lam_e)
        return {
            "r_H": r_h,
            "r_e": self.c @ st.x - self.problem.b,
            "r_lA": self.a_l @ st.x - st.s_lA - self.l_a,
            "r_uA": self.u_a - self.a_u @ st.x - st.s_uA,
            "r_lx": self.p_l @ st.x - st.s_lx - self.l_x,
            "r_ux": self.u_x - self.p_u @ st.x - st.s_ux,
            "r_c1": st.lam_lA * st.s_lA - st.mu,
            "r_c2": st.lam_uA * st.s_uA - st.mu,
            "r_c3": st.lam_lx * st.s_lx - st.mu,
            "r_c4": st.lam_ux * st.s_ux - st.mu,
        }

    def full_system(self):
        """Dense Newton system on the full set of unknowns, plus its RHS.

        Unknown ordering: (dx, d_lam_lA, d_lam_uA, d_lam_lx, d_lam_ux,
        d_lam_e, ds_lA, ds_uA, ds_lx, ds_ux).
        """
        st = self.state
        n, ml, mu_, nl, nu, me = self.sizes
        dim = n + 2 * (ml + mu_ + nl + nu) + me
        # row blocks: stationarity, equality, four primal, four complementarity
        row_off = np.cumsum([0, n, me, ml, mu_, nl, nu, ml, mu_, nl, nu])
        # column blocks: dx, the four inequality multipliers, lam_e, four slacks
        col_off = np.cumsum([0, n, ml, mu_, nl, nu, me, ml, mu_, nl, nu])
        k = np.zeros((dim, dim))

        def put(r, c, block):
            k[row_off[r]:row_off[r + 1], col_off[c]:col_off[c + 1]] = block

        put(0, 0, self.h)
        put(0, 1, -self.a_l.T)
        put(0, 2, self.a_u.T)
        put(0, 3, -self.p_l.T)
        put(0, 4, self.p_u.T)
        put(0, 5, -self.c.T)
        put(1, 0, self.c)
        put(1, 5, st.mu * np.eye(me))
        put(2, 0, self.a_l)
        put(2, 6, -np.eye(ml))
        put(3, 0, -self.a_u)
        put(3, 7, -np.eye(mu_))
        put(4, 0, self.p_l)
        put(4, 8, -np.eye(nl))
        put(5, 0, -self.p_u)
        put(5, 9, -np.eye(nu))
        put(6, 1, np.diag(st.s_lA))
        put(6, 6, np.diag(st.lam_lA))
        put(7, 2, np.diag(st.s_uA))
        put(7, 7, np.diag(st.lam_uA))
        put(8, 3, np.diag(st.s_lx))
        put(8, 8, np.diag(st.lam_lx))
        put(9, 4, np.diag(st.s_ux))
        put(9, 9, np.diag(st.lam_ux))

        r = self.residual_blocks()
        # block-row order on the RHS matches the block-row order of the matrix
        rhs = -np.concatenate([r["r_H"], r["r_e"], r["r_lA"], r["r_uA"],
                               r["r_lx"], r["r_ux"], r["r_c1"], r["r_c2"],
                               r["r_c3"], r["r_c4"]])
        return k, rhs

    def reduced_blocks(self):
        """Q, B, D and (r1, r2) of the 2x2 reduced system, from the formulas."""
        st = self.state
        r = self.residual_blocks()
        q = self.h + self.p_l.T @ np.diag(st.lam_lx / st.s_lx) @ self.p_l \
            + self.p_u.T @ np.diag(st.lam_ux / st.s_ux) @ self.p_u
        b = np.vstack([self.c, self.a_l, -self.a_u])
        d = np.concatenate([np.full(self.problem.m_eq, st.mu),
                            st.s_lA / st.lam_lA, st.s_uA / st.lam_uA])
        r1 = (-r["r_H"]
              - self.p_l.T @ (r["r_c3"] / st.s_lx)
              + self.p_u.T @ (r["r_c4"] / st.s_ux)
              - self.p_l.T @ ((st.lam_lx / st.s_lx) * r["r_lx"])
              + self.p_u.T @ ((st.lam_ux / st.s_ux) * r["r_ux"]))
        r2 = np.concatenate([-r["r_e"],
                             -r["r_lA"] - r["r_c1"] / st.lam_lA,
                             -r["r_uA"] - r["r_c2"] / st.lam_uA])
        return q, b, d, r1, r2

    def augmented_system(self):
        q, b, d, r1, r2 = self.reduced_blocks()
        m = len(d)
        k = np.block([[q, -b.T], [b, np.diag(d)]]) if m else q
        if m == 0:
            return q, r1
        return k, np.concatenate([r1, r2])

    def doubly_augmented_system(self):
        q, b, d, r1, r2 = self.reduced_blocks()
        m = len(d)
        if m == 0:
            return q, r1
        k = np.block([[q + 2.0 * b.T @ np.diag(1.0 / d) @ b, b.T],
                      [b, np.diag(d)]])
        rhs = np.concatenate([r1 + 2.0 * b.T @ (r2 / d), r2])
        return k, rhs

    def direction_vector(self, d: FullDirection) -> np.ndarray:
        """Flatten a FullDirection into the full-system unknown ordering."""
        return np.concatenate([d.dx, *np.split(d.d_lam, self.ends), d.d_lam_e,
                               *np.split(d.ds, self.ends)])


def dense_preconditioner(problem: QpProblem, state: IterateState):
    """(blockdiag(T + V S V', D), kept rows of B) from the dense blocks, entry by entry.

    H = diag(d) + U diag(w) U' (k = 0 unless quasi-Newton); T0 = d plus the
    variable-bound terms; row i of B is kept when (2/D_i) B_ij^2 / T0_j > 1
    for some j with T0_j > 0; T = T0 plus 2 B_ij^2 / D_i of every other row;
    V = [U, B_k'], S = diag(w, 2/D_k).
    """
    parts = DenseParts(problem, state)
    _, b, d, _, _ = parts.reduced_blocks()
    h, st, n = problem.hessian, parts.state, problem.n
    if isinstance(h, QuasiNewtonHessian):
        t0, u, w = h.h0_diag.copy(), h.u, h.w
    else:
        t0, u, w = np.diag(parts.h).copy(), np.zeros((n, 0)), np.zeros(0)
    t0 += np.diag(parts.p_l.T @ np.diag(st.lam_lx / st.s_lx) @ parts.p_l
                  + parts.p_u.T @ np.diag(st.lam_ux / st.s_ux) @ parts.p_u)
    kept = [i for i in range(len(d))
            if any(t0[j] > 0 and 2.0 / d[i] * b[i, j] ** 2 / t0[j] > 1.0
                   for j in range(n))]
    t = t0.copy()
    top = u @ np.diag(w) @ u.T
    for i in range(len(d)):
        if i in kept:
            top += 2.0 / d[i] * np.outer(b[i], b[i])
        else:
            for j in range(n):
                t[j] += 2.0 * b[i, j] ** 2 / d[i]
    m = np.zeros((n + len(d),) * 2)
    m[:n, :n] = np.diag(t) + top
    m[n:, n:] = np.diag(d)
    return m, kept


def random_sparse(rng, m, n, density=0.5) -> sp.csr_matrix:
    mask = rng.random((m, n)) < density
    a = np.where(mask, rng.standard_normal((m, n)), 0.0)
    return sparse_from_dense(a)


def random_hessian(rng, n, kind=None):
    if kind is None:
        kind = rng.choice(["diagonal", "sparse", "bfgs"])
    if kind == "diagonal":
        return SparseHessian(sp.diags(rng.uniform(0.5, 3.0, n)))
    if kind == "sparse":
        g = rng.standard_normal((n, max(1, n // 2)))
        dense = g @ g.T / n + 0.2 * np.eye(n)
        dense[np.abs(dense) < 0.05] = 0.0
        dense = 0.5 * (dense + dense.T)
        np.fill_diagonal(dense, np.abs(np.diag(dense)) + 0.2)
        return SparseHessian(sparse_from_dense(dense))
    if kind == "dense":  # every entry stored
        g = rng.standard_normal((n, n))
        return SparseHessian(g @ g.T / n + 0.2 * np.eye(n))
    k = int(rng.integers(1, max(2, n // 2 + 1)))
    return QuasiNewtonHessian(rng.uniform(0.5, 2.0, n),
                              rng.standard_normal((n, k)),
                              rng.uniform(0.1, 1.0, k))


def random_bounds(rng, center, spread=2.0, p_lower=0.6, p_upper=0.6) -> Bounds:
    m = len(center)
    lo = np.where(rng.random(m) < p_lower, center - rng.uniform(0.5, spread, m), -np.inf)
    hi = np.where(rng.random(m) < p_upper, center + rng.uniform(0.5, spread, m), np.inf)
    return Bounds(lo, hi)


def random_problem(rng, n=None, m_a=None, m_e=None, hessian_kind=None) -> QpProblem:
    """Random convex QP with mixed finite/infinite bounds on both families."""
    if n is None:
        n = int(rng.integers(2, 12))
    if m_a is None:
        m_a = int(rng.integers(0, 8))
    if m_e is None:
        m_e = int(rng.integers(0, 4))
    a = random_sparse(rng, m_a, n)
    c = random_sparse(rng, m_e, n, density=0.7)
    x_ref = rng.standard_normal(n)
    ax = (a @ x_ref) if m_a else np.zeros(0)
    problem = QpProblem(
        n=n,
        hessian=random_hessian(rng, n, hessian_kind),
        p=rng.standard_normal(n),
        a=a,
        lin_bounds=random_bounds(rng, ax),
        c=c,
        b=(c @ x_ref + 0.1 * rng.standard_normal(m_e)) if m_e else np.zeros(0),
        var_bounds=random_bounds(rng, x_ref, p_lower=0.7, p_upper=0.7),
    )
    if m_e == 0 and not (np.any(np.isfinite(problem.lin_bounds.lower))
                         or np.any(np.isfinite(problem.lin_bounds.upper))
                         or np.any(np.isfinite(problem.var_bounds.lower))
                         or np.any(np.isfinite(problem.var_bounds.upper))):
        # force at least one finite bound so the barrier problem is well-posed
        lo = problem.var_bounds.lower.copy()
        lo[0] = x_ref[0] - 1.0
        problem = QpProblem(n=n, hessian=problem.hessian, p=problem.p,
                            a=a, lin_bounds=problem.lin_bounds, c=c,
                            b=problem.b,
                            var_bounds=Bounds(lo, problem.var_bounds.upper))
    return problem


def random_interior_state(rng, problem: QpProblem) -> IterateState:
    layout = problem.layout
    sizes = dict(zip(FAMILIES, np.diff([0, *layout.splits, len(layout.g0)])))
    x = rng.standard_normal(problem.n)
    s = {f"s_{f}": rng.uniform(0.3, 2.0, sizes[f]) for f in FAMILIES}
    lam_e = rng.standard_normal(problem.m_eq)
    lam = {f"lam_{f}": rng.uniform(0.3, 2.0, sizes[f]) for f in FAMILIES}
    return make_state(x, float(rng.uniform(0.05, 1.0)), lam_e, **s, **lam)
