"""Seeded input files for the three benchmark workloads.

Each generator writes plain files (QP JSON, ``.npz`` arrays, LIBSVM text) into
a directory; the solver process receives nothing else. The same seed and
scale give byte-identical files. ``scale`` shrinks the problem sizes for the
self-test; the benchmark always runs at scale 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

WORKLOADS = ("sparse_qp", "bfgs_box", "svm_dual")

# Parameters of solve-svm for the svm_dual workload.
SVM_SIGMA = 1.0
SVM_C = 1.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sparse_rows(rng, n_rows, n, per_row) -> sp.csr_matrix:
    """Matrix with ``per_row`` distinct nonzero columns in each row."""
    rows = np.repeat(np.arange(n_rows), per_row)
    cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(n_rows)])
    return sp.csr_matrix((rng.uniform(-1.0, 1.0, len(rows)), (rows, cols)),
                         shape=(n_rows, n))


# Generator seed of the one sparse_qp instance. Freshly drawn instances of
# this family need 23k-45k CG iterations (2-6 solves at the 5000 cap)
# depending on the seed, a spread no run length averages out. --seed
# therefore relabels this instance instead: a signed permutation of the
# variables and of the A and C rows. That changes the file, the memory
# layout and the rounding, but not the mathematics, and keeps the CG count
# within a few percent.
SPARSE_QP_INSTANCE = 1


def _sparse_qp_instance(rng, n, m_eq, m_a) -> dict:
    """Sparse-Hessian QP with equality rows, two-sided A rows and half the
    variables boxed in [-1, 1], as scipy matrices and bound arrays."""
    # symmetric, strictly diagonally dominant: about 5 off-diagonals per row
    i = rng.integers(0, n, size=5 * n // 2)
    j = rng.integers(0, n, size=5 * n // 2)
    keep = i != j
    i, j = i[keep], j[keep]
    v = rng.uniform(-1.0, 1.0, len(i))
    off = sp.coo_matrix((np.concatenate([v, v]),
                         (np.concatenate([i, j]), np.concatenate([j, i]))),
                        shape=(n, n)).tocsr()
    h = off + sp.diags(abs(off).sum(axis=1).A1 + rng.uniform(1.0, 2.0, n))

    boxed = rng.choice(n, n // 2, replace=False)
    lx = np.full(n, -np.inf)
    ux = np.full(n, np.inf)
    lx[boxed], ux[boxed] = -1.0, 1.0

    # a strictly feasible point fixes b and keeps every A row satisfiable
    x_feas = rng.uniform(-0.5, 0.5, n)
    c = _sparse_rows(rng, m_eq, n, 5)
    a = _sparse_rows(rng, m_a, n, 5)
    ax = a @ x_feas
    return {"h": h.tocsr(), "p": rng.standard_normal(n), "a": a,
            "l": ax - rng.uniform(0.1, 1.0, m_a), "u": ax + rng.uniform(0.1, 1.0, m_a),
            "c": c, "b": c @ x_feas, "lx": lx, "ux": ux}


def _relabel(q: dict, rng) -> dict:
    """The same QP under x -> S P x and signed row permutations of A and C."""
    n, m_a, m_e = q["h"].shape[0], q["a"].shape[0], q["c"].shape[0]
    perm, sign = rng.permutation(n), rng.choice([-1.0, 1.0], n)
    pv = sp.csr_matrix((sign, (np.arange(n), perm)), shape=(n, n))
    ra, fa = rng.permutation(m_a), rng.choice([-1.0, 1.0], m_a)
    rc, fc = rng.permutation(m_e), rng.choice([-1.0, 1.0], m_e)

    def flip(lo, hi, f):
        return np.where(f > 0, lo, -hi), np.where(f > 0, hi, -lo)

    l, u = flip(q["l"][ra], q["u"][ra], fa)
    lx, ux = flip(q["lx"][perm], q["ux"][perm], sign)
    return {"h": (pv @ q["h"] @ pv.T).tocsr(), "p": pv @ q["p"],
            "a": (sp.diags(fa) @ q["a"][ra] @ pv.T).tocsr(), "l": l, "u": u,
            "c": (sp.diags(fc) @ q["c"][rc] @ pv.T).tocsr(), "b": fc * q["b"][rc],
            "lx": lx, "ux": ux}


def write_sparse_qp(out: Path, seed: int, scale: float = 1.0) -> None:
    """n=2000 sparse QP, 50 equality and 250 two-sided rows, through
    ``qpipm.cli.qp_document``."""
    from qpipm.cli import qp_document
    from qpipm.model import Bounds, QpProblem, SparseHessian, SparseMatrix

    n = max(int(2000 * scale), 20)
    q = _relabel(_sparse_qp_instance(_rng(SPARSE_QP_INSTANCE, 0), n,
                                     max(int(50 * scale), 1), max(int(250 * scale), 1)),
                 _rng(seed, 0))

    def matrix(m):
        m = m.tocoo()
        return SparseMatrix.from_coo(m.shape[0], m.shape[1], m.row, m.col, m.data)

    problem = QpProblem(n=n, hessian=SparseHessian(matrix(q["h"])), p=q["p"],
                        a=matrix(q["a"]), lin_bounds=Bounds(q["l"], q["u"]),
                        c=matrix(q["c"]), b=q["b"], var_bounds=Bounds(q["lx"], q["ux"]))
    (out / "problem.json").write_text(json.dumps(qp_document(problem)))


def write_bfgs_box(out: Path, seed: int, scale: float = 1.0) -> None:
    """The criterion-9 quasi-Newton box QP at n=200000, k=20, 20000 boxed."""
    rng = _rng(seed, 1)
    n = max(int(200_000 * scale), 20)
    k = 20
    n_bounded = n // 10
    h0 = rng.uniform(0.5, 2.0, n)
    u = 0.1 * rng.standard_normal((n, k))
    w = rng.uniform(0.1, 1.0, k)
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    bounded = rng.choice(n, n_bounded, replace=False)
    lower[bounded], upper[bounded] = -1.0, 1.0
    with open(out / "problem.npz", "wb") as fh:
        np.savez(fh, h0=h0, u=u, w=w, p=rng.standard_normal(n),
                 lower=lower, upper=upper)


def _libsvm_lines(rng, count, n_features=119, active=14):
    """a1a-like samples: 14 active binary features out of 119, 25% positives.

    Positives draw their features from the first half of the index range, as
    in the synthetic a1a-scale acceptance test.
    """
    lines = []
    for _ in range(count):
        y = 1 if rng.random() < 0.25 else -1
        pool = n_features // 2 if y > 0 else n_features
        idx = np.sort(rng.choice(pool, active, replace=False)) + 1
        lines.append(f"{y:+d} " + " ".join(f"{i}:1" for i in idx))
    return "\n".join(lines) + "\n"


def write_svm_dual(out: Path, seed: int, scale: float = 1.0) -> None:
    """4000 training samples and 100 held-out samples from a second stream."""
    n_train = max(int(4000 * scale), 40)
    n_test = max(int(100 * scale), 10)
    (out / "train.libsvm").write_text(_libsvm_lines(_rng(seed, 2), n_train))
    (out / "heldout.libsvm").write_text(_libsvm_lines(_rng(seed, 3), n_test))


WRITERS = {
    "sparse_qp": write_sparse_qp,
    "bfgs_box": write_bfgs_box,
    "svm_dual": write_svm_dual,
}


def write_inputs(workload: str, out: Path, seed: int, scale: float = 1.0) -> None:
    out.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](out, seed, scale)
