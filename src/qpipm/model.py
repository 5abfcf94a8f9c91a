"""Problem representation: sparse matrices, Hessian variants, bounds, QP instances.

``QpProblem.a``, ``QpProblem.c`` and ``SparseHessian.m`` take any scipy
sparse matrix or dense array and hold a ``scipy.sparse.csr_matrix`` copy in
canonical form (float64, index arrays fully checked, duplicates summed,
column indices sorted), built once on construction; the solver reads them
only through products and the stored entries.

Each Hessian class (one per product kernel; a diagonal H is
``SparseHessian(sp.diags(d))``) implements the only members the solver reads
(no code outside the classes looks at a Hessian's type): ``n``; ``apply(v)``,
the product H v; ``low_rank()``, ``(d, U, w)`` with H = R + U diag(w) U' and
d = diag(R), where k = 0 and d = diag(H) except for ``QuasiNewtonHessian``
(d = h0_diag); ``validate()``, a list of violations (empty when valid); and
``to_json()``, the QP file's ``hessian`` member. The low-rank term's Gram
U' diag(1/t) U is ``QpProblem.low_rank_gram(t)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

import numpy as np
import scipy.sparse as sp


class DimensionError(ValueError):
    """Operand shapes are inconsistent."""


def _canonical_csr(m) -> sp.csr_matrix:
    """A float64 CSR copy of the scipy sparse matrix or dense array ``m``
    (left unmodified), its index arrays fully checked, duplicates summed and
    indices sorted."""
    out = sp.csr_matrix(m, dtype=np.float64, copy=True)
    # the constructor alone accepts column indices >= the column count
    out.check_format(full_check=True)
    out.sum_duplicates()
    return out


class SparseMatrix:
    """Constructor of the canonical CSR matrices ``QpProblem`` and
    ``SparseHessian`` hold; it has no instances."""

    @staticmethod
    def from_coo(m, n, rows, cols, vals) -> sp.csr_matrix:
        """The m-by-n matrix of coordinate triplets; duplicate entries are summed."""
        return _canonical_csr(sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(m, n)))


def coo_json(m: sp.csr_matrix) -> dict:
    """The coordinate-list object of the QP file format."""
    coo = m.tocoo()
    return {"rows": coo.row.tolist(), "cols": coo.col.tolist(),
            "vals": coo.data.tolist()}


def _nan_report(name: str, arr) -> list[str]:
    """Bounds: ±inf marks an unbounded side, so only NaN is a violation."""
    return [f"non-finite data (NaN) in {name}"] if np.any(np.isnan(arr)) else []


def _finite_report(name: str, arr) -> list[str]:
    """Coefficient data: NaN and ±inf are both violations."""
    if np.all(np.isfinite(arr)):
        return []
    return _nan_report(name, arr) or [f"non-finite data (inf) in {name}"]


def _no_update(d: np.ndarray):
    """low_rank() of a Hessian without a low-rank term: (d, n-by-0 U, no weights)."""
    return d, np.zeros((len(d), 0)), np.zeros(0)


@dataclass(frozen=True)
class SparseHessian:
    """Symmetric Hessian: ``m`` is a canonical CSR copy of the scipy sparse
    matrix or dense array given, both triangles stored; ``low_rank()``
    returns its diagonal, read-only and built once."""

    m: sp.csr_matrix
    _diag: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = _canonical_csr(self.m)
        diag = m.diagonal()
        diag.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_diag", diag)

    @property
    def n(self):
        return self.m.shape[0]

    def apply(self, v):
        return self.m @ v

    def low_rank(self):
        return _no_update(self._diag)

    def validate(self):
        m = self.m
        report = _finite_report("hessian", m.data)
        if m.shape[0] != m.shape[1]:
            report.append(f"hessian is not square: shape {m.shape}")
        elif (not report and m.data.size  # m - m.T is NaN where m holds inf
              and abs(m - m.T).max() > 1e-10 * np.max(np.abs(m.data))):
            report.append("hessian is not symmetric")
        return report

    def to_json(self):
        return {"kind": "coo", **coo_json(self.m)}


@dataclass(frozen=True)
class QuasiNewtonHessian:
    """Low-rank-updated curvature model H = H0 + U diag(w) U^T, H0 diagonal.

    Products never materialize the dense n-by-n matrix. k = 0 is legal and
    means H = H0.
    """

    h0_diag: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        h0 = np.asarray(self.h0_diag, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != len(h0) or u.shape[1] != len(w):
            raise DimensionError("update matrix must be n x k with k weights")
        object.__setattr__(self, "h0_diag", h0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    @property
    def n(self):
        return len(self.h0_diag)

    def apply(self, v):
        return self.h0_diag * v + self.u @ (self.w * (self.u.T @ v))

    def low_rank(self):
        return self.h0_diag, self.u, self.w

    def validate(self):
        return (_finite_report("hessian.h0_diag", self.h0_diag)
                + _finite_report("hessian.u", self.u) + _finite_report("hessian.w", self.w))

    def to_json(self):
        return {"kind": "bfgs", "h0_diag": self.h0_diag.tolist(),
                "u": self.u.tolist(), "w": self.w.tolist()}


class Hessian(Protocol):
    """The members listed in the module docstring."""

    n: int

    def apply(self, v: np.ndarray) -> np.ndarray: ...
    def low_rank(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...
    def validate(self) -> list[str]: ...
    def to_json(self) -> dict: ...


def hessian_apply(h: Hessian, v: np.ndarray) -> np.ndarray:
    """H v, checked against the Hessian's dimension."""
    v = np.asarray(v, dtype=np.float64)
    if len(v) != h.n:
        raise DimensionError(f"vector length {len(v)} != Hessian dimension {h.n}")
    return h.apply(v)


def hessian_diagonal(h: Hessian) -> np.ndarray:
    """diag(H) = d + sum_j w_j U_j^2, without an n-by-k temporary."""
    d, u, w = h.low_rank()
    return d + np.einsum("ij,ij,j->i", u, u, w)


# U' diag(s) U is summed over row blocks of U of about 2^15 entries: the
# scaled copy of a block is 256 KB, not an n-by-k temporary, and stays in
# cache (2^15 took 12 ms at n=200000, k=20, one thread; 2^18 took 21 ms)
_GRAM_BLOCK_ENTRIES = 1 << 15


def scaled_gram(u: np.ndarray, scale: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """U_S' diag(scale) U_S over the rows S = ``rows`` of U (all rows when
    None), ``scale`` holding one entry per row of S. Summed over row blocks,
    each gathered and scaled on its own, so no n-by-k temporary is made."""
    k = u.shape[1]
    gram = np.zeros((k, k))
    count = len(u) if rows is None else len(rows)
    step = max(1, _GRAM_BLOCK_ENTRIES // max(k, 1))
    for lo in range(0, count, step):
        block = u[lo:lo + step] if rows is None else u[rows[lo:lo + step]]
        gram += block.T @ (block * scale[lo:lo + step, None])
    return gram


def _positive_inverse(d: np.ndarray) -> np.ndarray:
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)


@dataclass(frozen=True)
class Bounds:
    """Two-sided extended-real bounds; -inf/+inf mark unbounded sides."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape:
            raise DimensionError("lower and upper must have equal length")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __len__(self):
        return len(self.lower)

    @classmethod
    def free(cls, n: int) -> "Bounds":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))


@dataclass(frozen=True)
class QpProblem:
    """Convex QP: min 1/2 x'Hx + p'x  s.t.  l <= Ax <= u,  Cx = b,  lx <= x <= ux.

    Positive semidefiniteness of the Hessian is a precondition, not a
    runtime check; tests spot-check it by random quadratic-form sampling.
    """

    n: int
    hessian: Hessian
    p: np.ndarray
    a: sp.csr_matrix
    lin_bounds: Bounds
    c: sp.csr_matrix
    b: np.ndarray
    var_bounds: Bounds

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "a", _canonical_csr(self.a))
        object.__setattr__(self, "c", _canonical_csr(self.c))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    @property
    def m_lin(self) -> int:
        return self.a.shape[0]

    @property
    def m_eq(self) -> int:
        return self.c.shape[0]

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ hessian_apply(self.hessian, x)) + float(self.p @ x)

    @cached_property
    def layout(self) -> "BoundIndexMap":
        """The stacked inequality layout, built on first use and kept."""
        return BoundIndexMap.from_problem(self)

    @cached_property
    def _gram_base(self) -> np.ndarray:
        """G0 = U' diag(1/d+) U of ``hessian.low_rank()``, built on first use and kept."""
        d, u, _ = self.hessian.low_rank()
        return scaled_gram(u, _positive_inverse(d))

    def low_rank_gram(self, t: np.ndarray) -> np.ndarray:
        """U' diag(1/t) U for the U of ``hessian.low_rank()`` and t > 0. Reads
        only the rows S of U where t != d, which hold every d_j <= 0:
        G0 + sum_{j in S} u_j u_j' (1/t_j - 1/d+_j), 1/d+ = 1/d where d > 0, else 0."""
        d, u, _ = self.hessian.low_rank()
        changed = np.flatnonzero(t != d)
        return self._gram_base + scaled_gram(
            u, 1.0 / t[changed] - _positive_inverse(d[changed]), changed)


@dataclass(frozen=True)
class BoundIndexMap:
    """What the KKT operator needs that is fixed by the problem, built once
    per problem (``QpProblem.layout``).

    The stacked layout of the ``kkt`` module docstring: splits are the ends of the
    A-lower, A-upper and variable-lower blocks (splits[1] = m_rows); var_idx,
    var_sign and g0 as there. b = (C; A_l; -A_u) in CSR, bt its CSR transpose,
    bt_sq = bt * bt elementwise. The only code that knows the four bound
    families.
    """

    m_eq: int
    splits: tuple[int, int, int]
    var_idx: np.ndarray
    var_sign: np.ndarray
    g0: np.ndarray
    b: sp.csr_matrix
    bt: sp.csr_matrix
    bt_sq: sp.csr_matrix

    @classmethod
    def from_problem(cls, problem: QpProblem) -> "BoundIndexMap":
        lin, var = problem.lin_bounds, problem.var_bounds
        lin_lower = np.where(np.isfinite(lin.lower))[0]
        lin_upper = np.where(np.isfinite(lin.upper))[0]
        var_lower = np.where(np.isfinite(var.lower))[0]
        var_upper = np.where(np.isfinite(var.upper))[0]
        a = problem.a
        b = sp.vstack([problem.c, a[lin_lower], -a[lin_upper]], format="csr")
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
            b=b, bt=bt, bt_sq=bt.multiply(bt).tocsr())

    @property
    def m_rows(self) -> int:
        return self.splits[1]

    @property
    def m(self) -> int:
        """The rows of B, m_eq + m_rows."""
        return self.m_eq + self.m_rows

    def g(self, x: np.ndarray, bx: np.ndarray) -> np.ndarray:
        """The stacked inequality values g(x), given bx = b @ x."""
        return np.concatenate([bx[self.m_eq:], self.var_sign * x[self.var_idx]])

    def scatter_var(self, w: np.ndarray) -> np.ndarray:
        """w summed into an n-vector at var_idx. With P x = var_sign * x[var_idx],
        P'v = scatter_var(var_sign * v) and P' diag(w) P = diag(scatter_var(w))."""
        # astype: bincount gives integer zeros when there are no variable bounds
        n = self.b.shape[1]
        return np.bincount(self.var_idx, w, minlength=n).astype(np.float64, copy=False)


def box_qp(hessian: Hessian, p, lower, upper) -> QpProblem:
    """Convenience constructor for a bound-constrained QP."""
    n = hessian.n
    return QpProblem(n=n, hessian=hessian, p=p,
                     a=sp.csr_matrix((0, n)), lin_bounds=Bounds.free(0),
                     c=sp.csr_matrix((0, n)), b=np.zeros(0),
                     var_bounds=Bounds(lower, upper))


def validate_problem(problem: QpProblem) -> list[str]:
    """Return a list of violations; an empty list means the problem is valid."""
    report: list[str] = []
    n, m_a, m_e = problem.n, problem.m_lin, problem.m_eq
    if n <= 0:
        report.append("empty variable space (n must be >= 1)")
    if len(problem.p) != n:
        report.append(f"dimension mismatch: p has length {len(problem.p)}, expected {n}")
    if problem.hessian.n != n:
        report.append(f"dimension mismatch: hessian is {problem.hessian.n}-dimensional, expected {n}")
    if problem.a.shape[1] != n:
        report.append(f"dimension mismatch: A has {problem.a.shape[1]} columns, expected {n}")
    if len(problem.lin_bounds) != m_a:
        report.append(f"dimension mismatch: lin_bounds has length {len(problem.lin_bounds)}, expected {m_a}")
    if problem.c.shape[1] != n:
        report.append(f"dimension mismatch: C has {problem.c.shape[1]} columns, expected {n}")
    if len(problem.b) != m_e:
        report.append(f"dimension mismatch: b has length {len(problem.b)}, expected {m_e}")
    if len(problem.var_bounds) != n:
        report.append(f"dimension mismatch: var_bounds has length {len(problem.var_bounds)}, expected {n}")

    for name, bounds in (("lin_bounds", problem.lin_bounds), ("var_bounds", problem.var_bounds)):
        lo, hi = bounds.lower, bounds.upper
        bad = np.where(np.isfinite(lo) & np.isfinite(hi) & (lo > hi))[0]
        for i in bad:
            report.append(f"inverted bound: {name}[{i}] has lower {lo[i]} > upper {hi[i]}")
        for i in np.where((lo == np.inf) | (hi == -np.inf))[0]:
            report.append(f"empty bound: {name}[{i}] has lower {lo[i]}, upper {hi[i]}")
        report += _nan_report(f"{name}.lower", lo) + _nan_report(f"{name}.upper", hi)

    for name, arr in (("p", problem.p), ("b", problem.b),
                      ("A", problem.a.data), ("C", problem.c.data)):
        report += _finite_report(name, arr)
    report += problem.hessian.validate()

    limits = (problem.lin_bounds.lower, problem.lin_bounds.upper,
              problem.var_bounds.lower, problem.var_bounds.upper)
    if m_e == 0 and not any(np.isfinite(v).any() for v in limits):
        report.append("no finite bounds or constraints; barrier subproblem is not well-posed")
    return report
