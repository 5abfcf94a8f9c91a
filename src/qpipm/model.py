"""Problem representation: sparse matrices, Hessian variants, bounds, QP instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

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
    def from_dense(cls, a) -> "SparseMatrix":
        a = np.asarray(a, dtype=np.float64)
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols])

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "SparseMatrix":
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0))

    @cached_property
    def csr(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.values, self.col_indices, self.row_offsets),
                             shape=(self.n_rows, self.n_cols))

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_dense(self) -> np.ndarray:
        """Dense materialization by direct scatter (independent of scipy)."""
        out = np.zeros((self.n_rows, self.n_cols))
        for i in range(self.n_rows):
            lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
            out[i, self.col_indices[lo:hi]] = self.values[lo:hi]
        return out


@dataclass(frozen=True)
class DiagonalHessian:
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64))

    @property
    def n(self):
        return len(self.d)


@dataclass(frozen=True)
class SparseHessian:
    """Symmetric sparse Hessian; stores the full (not triangular) matrix."""

    m: SparseMatrix

    @property
    def n(self):
        return self.m.n_rows


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


Hessian = Union[DiagonalHessian, SparseHessian, DenseHessian, QuasiNewtonHessian]


def hessian_apply(h: Hessian, v: np.ndarray) -> np.ndarray:
    """Compute H v without forming H for the structured variants."""
    v = np.asarray(v, dtype=np.float64)
    if len(v) != h.n:
        raise DimensionError(f"vector length {len(v)} != Hessian dimension {h.n}")
    if isinstance(h, DiagonalHessian):
        return h.d * v
    if isinstance(h, SparseHessian):
        return h.m.csr @ v
    if isinstance(h, DenseHessian):
        # imported here: scipy.linalg adds ~8 MB of resident memory to
        # processes that never build a dense Hessian
        from scipy.linalg.blas import dsymv

        # m.T is the Fortran-order view f2py passes without copying m;
        # lower=1 reads its lower triangle, i.e. m's upper triangle
        return dsymv(1.0, h.m.T, v, lower=1)
    return h.h0_diag * v + h.u @ (h.w * (h.u.T @ v))


def hessian_diagonal(h: Hessian) -> np.ndarray:
    if isinstance(h, DiagonalHessian):
        return h.d.copy()
    if isinstance(h, SparseHessian):
        return np.asarray(h.m.csr.diagonal())
    if isinstance(h, DenseHessian):
        return np.diag(h.m).copy()
    return h.h0_diag + (h.w * h.u ** 2).sum(axis=1)


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


def _check_finite(name, arr, report):
    arr = np.asarray(arr, dtype=np.float64)
    if np.any(np.isnan(arr)):
        report.append(f"non-finite data (NaN) in {name}")


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
        _check_finite(f"{name}.lower", np.where(np.isinf(lo), 0.0, lo), report)
        _check_finite(f"{name}.upper", np.where(np.isinf(hi), 0.0, hi), report)

    _check_finite("p", problem.p, report)
    _check_finite("b", problem.b, report)
    _check_finite("A", problem.a.values, report)
    _check_finite("C", problem.c.values, report)
    if isinstance(problem.hessian, DiagonalHessian):
        _check_finite("hessian", problem.hessian.d, report)
    elif isinstance(problem.hessian, SparseHessian):
        _check_finite("hessian", problem.hessian.m.values, report)
    elif isinstance(problem.hessian, DenseHessian):
        m = problem.hessian.m
        _check_finite("hessian", m, report)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            report.append(f"hessian is not square: shape {m.shape}")
        elif m.size and np.max(np.abs(m - m.T)) > 1e-10 * np.max(np.abs(m)):
            report.append("hessian is not symmetric")
    else:
        _check_finite("hessian.h0_diag", problem.hessian.h0_diag, report)
        _check_finite("hessian.u", problem.hessian.u, report)
        _check_finite("hessian.w", problem.hessian.w, report)

    any_finite_bound = (np.any(np.isfinite(problem.lin_bounds.lower))
                        or np.any(np.isfinite(problem.lin_bounds.upper))
                        or np.any(np.isfinite(problem.var_bounds.lower))
                        or np.any(np.isfinite(problem.var_bounds.upper)))
    if not any_finite_bound and m_e == 0:
        report.append("no finite bounds or constraints; barrier subproblem is not well-posed")
    return report
