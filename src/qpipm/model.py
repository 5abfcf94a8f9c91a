"""Problem representation: sparse matrices, Hessian variants, bounds, QP instances.

Every Hessian class implements the only members the solver reads (no code
outside the classes looks at a Hessian's type): ``n``; ``apply(v)``, the
product H v; ``low_rank()``, ``(d, U, w)`` with H = R + U diag(w) U' and
d = diag(R), where k = 0 and d = diag(H) except for ``QuasiNewtonHessian``
(d = h0_diag); ``validate()``, a list of violations (empty when valid); and
``to_json()``, the ``hessian`` member of the QP file format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np
import scipy.sparse as sp


class DimensionError(ValueError):
    """Operand shapes are inconsistent."""


@dataclass(frozen=True)
class SparseMatrix:
    """Compressed-row sparse matrix.

    Within each row column indices are strictly increasing; duplicate
    entries must be summed before construction (see :meth:`from_coo`).
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ro = np.asarray(self.row_offsets, dtype=np.int64)
        ci = np.asarray(self.col_indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "row_offsets", ro)
        object.__setattr__(self, "col_indices", ci)
        object.__setattr__(self, "values", vals)
        if ro.shape != (self.n_rows + 1,):
            raise DimensionError("row_offsets must have length n_rows + 1")
        if ro[0] != 0 or ro[-1] != len(vals):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(ro) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(ci) != len(vals):
            raise DimensionError("col_indices and values must have equal length")
        if len(ci) and (ci.min() < 0 or ci.max() >= self.n_cols):
            raise ValueError("column index out of range")
        row_of = np.repeat(np.arange(self.n_rows), np.diff(ro))
        bad = np.flatnonzero((np.diff(ci) <= 0) & (row_of[1:] == row_of[:-1]))
        if len(bad):
            raise ValueError(
                f"column indices not strictly increasing in row {row_of[bad[0]]}")

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate entries are summed."""
        m = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n_rows, n_cols),
        ).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(n_rows, n_cols, m.indptr, m.indices, m.data)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "SparseMatrix":
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0))

    @cached_property
    def csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.values, self.col_indices, self.row_offsets),
                             shape=(self.n_rows, self.n_cols))

    def to_json(self) -> dict:
        """The coordinate-list object of the QP file format."""
        coo = self.csr.tocoo()
        return {"rows": coo.row.tolist(), "cols": coo.col.tolist(),
                "vals": coo.data.tolist()}


def _nan_report(name: str, arr) -> list[str]:
    return [f"non-finite data (NaN) in {name}"] if np.any(np.isnan(arr)) else []


def _no_update(d: np.ndarray):
    """low_rank() of a Hessian without a low-rank term: (d, n-by-0 U, no weights)."""
    return d, np.zeros((len(d), 0)), np.zeros(0)


@dataclass(frozen=True)
class DiagonalHessian:
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64))

    @property
    def n(self):
        return len(self.d)

    def apply(self, v):
        return self.d * v

    def low_rank(self):
        return _no_update(self.d)

    def validate(self):
        return _nan_report("hessian", self.d)

    def to_json(self):
        return {"kind": "diagonal", "d": self.d.tolist()}


@dataclass(frozen=True)
class SparseHessian:
    """Symmetric sparse Hessian; stores the full (not triangular) matrix."""

    m: SparseMatrix

    @property
    def n(self):
        return self.m.n_rows

    def apply(self, v):
        return self.m.csr @ v

    def low_rank(self):
        return _no_update(np.asarray(self.m.csr.diagonal()))

    def validate(self):
        return _nan_report("hessian", self.m.values)

    def to_json(self):
        return {"kind": "coo", **self.m.to_json()}


@dataclass(frozen=True)
class DenseHessian:
    """Explicit C-contiguous storage; used by the SVM frontend and test oracles.

    ``m`` must be symmetric (``validate_problem`` checks it): the product
    reads one triangle with BLAS ``symv``.
    """

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", np.ascontiguousarray(self.m, dtype=np.float64))

    @property
    def n(self):
        return self.m.shape[0]

    def apply(self, v):
        # imported here: scipy.linalg adds ~8 MB of resident memory to
        # processes that never build a dense Hessian
        from scipy.linalg.blas import dsymv

        # m.T is the Fortran-order view f2py passes without copying m;
        # lower=1 reads its lower triangle, i.e. m's upper triangle
        return dsymv(1.0, self.m.T, v, lower=1)

    def low_rank(self):
        return _no_update(np.diag(self.m))

    def validate(self):
        m = self.m
        report = _nan_report("hessian", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            report.append(f"hessian is not square: shape {m.shape}")
        elif m.size and np.max(np.abs(m - m.T)) > 1e-10 * np.max(np.abs(m)):
            report.append("hessian is not symmetric")
        return report

    def to_json(self):
        raise ValueError("dense Hessians have no file representation")


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
        return (_nan_report("hessian.h0_diag", self.h0_diag)
                + _nan_report("hessian.u", self.u) + _nan_report("hessian.w", self.w))

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

    @classmethod
    def box(cls, lower, upper) -> "Bounds":
        return cls(np.asarray(lower, dtype=np.float64),
                   np.asarray(upper, dtype=np.float64))


@dataclass(frozen=True)
class QpProblem:
    """Convex QP: min 1/2 x'Hx + p'x  s.t.  l <= Ax <= u,  Cx = b,  lx <= x <= ux.

    Positive semidefiniteness of the Hessian is a precondition, not a
    runtime check; tests spot-check it by random quadratic-form sampling.
    """

    n: int
    hessian: Hessian
    p: np.ndarray
    a: SparseMatrix
    lin_bounds: Bounds
    c: SparseMatrix
    b: np.ndarray
    var_bounds: Bounds

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    @property
    def m_lin(self) -> int:
        return self.a.n_rows

    @property
    def m_eq(self) -> int:
        return self.c.n_rows

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ hessian_apply(self.hessian, x)) + float(self.p @ x)


def box_qp(hessian: Hessian, p, lower, upper) -> QpProblem:
    """Convenience constructor for a bound-constrained QP."""
    n = hessian.n
    return QpProblem(n=n, hessian=hessian, p=p,
                     a=SparseMatrix.empty(0, n), lin_bounds=Bounds.free(0),
                     c=SparseMatrix.empty(0, n), b=np.zeros(0),
                     var_bounds=Bounds.box(lower, upper))


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
    if problem.a.n_cols != n:
        report.append(f"dimension mismatch: A has {problem.a.n_cols} columns, expected {n}")
    if len(problem.lin_bounds) != m_a:
        report.append(f"dimension mismatch: lin_bounds has length {len(problem.lin_bounds)}, expected {m_a}")
    if problem.c.n_cols != n:
        report.append(f"dimension mismatch: C has {problem.c.n_cols} columns, expected {n}")
    if len(problem.b) != m_e:
        report.append(f"dimension mismatch: b has length {len(problem.b)}, expected {m_e}")
    if len(problem.var_bounds) != n:
        report.append(f"dimension mismatch: var_bounds has length {len(problem.var_bounds)}, expected {n}")

    for name, bounds in (("lin_bounds", problem.lin_bounds), ("var_bounds", problem.var_bounds)):
        lo, hi = bounds.lower, bounds.upper
        bad = np.where(np.isfinite(lo) & np.isfinite(hi) & (lo > hi))[0]
        for i in bad:
            report.append(f"inverted bound: {name}[{i}] has lower {lo[i]} > upper {hi[i]}")
        report += _nan_report(f"{name}.lower", lo) + _nan_report(f"{name}.upper", hi)

    for name, arr in (("p", problem.p), ("b", problem.b),
                      ("A", problem.a.values), ("C", problem.c.values)):
        report += _nan_report(name, arr)
    report += problem.hessian.validate()

    limits = (problem.lin_bounds.lower, problem.lin_bounds.upper,
              problem.var_bounds.lower, problem.var_bounds.upper)
    if m_e == 0 and not any(np.isfinite(v).any() for v in limits):
        report.append("no finite bounds or constraints; barrier subproblem is not well-posed")
    return report
