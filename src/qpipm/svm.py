"""SVM dual frontend: LIBSVM parsing, RBF kernel, dual QP construction,
bias recovery and prediction.

A dataset holds its samples as the rows of one CSR matrix; ``predict``
takes one such row, for example ``data.samples[j]``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Bounds, DenseHessian, QpProblem, _canonical_csr, hessian_apply

MAX_PRECOMPUTED_SAMPLES = 20000
# Entries per row block of the kernel build (rows = this // n). At n = 4000
# (one BLAS thread, 2 MiB L2 per core, median of 15 builds) 2^16 entries (16
# rows) took 203 ms, 2^18 (65 rows) 162 ms, 2^19 (131 rows) 149 ms and 2^20
# (262 rows) 144 ms, the last two within the spread; fewer rows compute less
# of the diagonal blocks' lower halves, which are overwritten.
_KERNEL_BLOCK = 1 << 19


class SvmParseError(ValueError):
    """Malformed LIBSVM input; message carries the line number."""


class DegenerateModelError(RuntimeError):
    """No support vectors: the trained dual carries no information."""


@dataclass(frozen=True)
class SvmDataset:
    """Samples as the rows of ``samples``, a canonical CSR copy of the given
    scipy sparse matrix (see ``QpProblem``), and their ±1 ``labels``, one
    per sample row; ValueError names the first other label or the two
    counts."""

    samples: sp.csr_matrix
    labels: np.ndarray
    # (sigma, DenseHessian): the dual Hessian of the last sigma, see _signed_kernel
    _kernel: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "samples", _canonical_csr(self.samples))
        labels = np.asarray(self.labels, dtype=np.float64)
        if labels.shape != (len(self),):
            raise ValueError(f"labels of shape {labels.shape} for {len(self)} "
                             "samples: expected one label per sample")
        bad = np.flatnonzero(np.abs(labels) != 1.0)  # NaN included
        if len(bad):
            raise ValueError(f"label {labels[bad[0]]} of sample {bad[0]} is not +1 or -1")
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SvmConfig:
    sigma: float
    c: float

    def __post_init__(self):
        if not (self.sigma > 0 and self.c > 0):  # NaN fails too
            raise ValueError("sigma and c must be positive")


@dataclass(frozen=True)
class SvmModel:
    """Trained model; ``decision_values`` are the training scores without
    the bias. ``predict`` reads the support vectors' dense rows ``sv_rows``,
    their squared norms ``sv_sq`` and ``sv_coef = alpha_i y_i``, all
    derived from the other fields on construction."""

    alpha: np.ndarray
    bias: float
    support_indices: np.ndarray
    decision_values: np.ndarray
    dataset: SvmDataset
    config: SvmConfig
    sv_rows: np.ndarray = field(init=False, compare=False, repr=False)
    sv_sq: np.ndarray = field(init=False, compare=False, repr=False)
    sv_coef: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        data, sv = self.dataset, self.support_indices
        rows = data.samples[sv].toarray()
        object.__setattr__(self, "sv_rows", rows)
        object.__setattr__(self, "sv_sq", (rows * rows).sum(axis=1))
        object.__setattr__(self, "sv_coef", self.alpha[sv] * data.labels[sv])


def parse_libsvm(text: str | bytes) -> SvmDataset:
    """Parse the LIBSVM line format: "<label> <idx>:<val> ..." (1-based indices)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise SvmParseError(f"line {lineno}: not UTF-8 text") from None
    indptr, indices, values = [0], [], []
    labels: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise SvmParseError(f"line {lineno}: label '{tokens[0]}' is not numeric") from None
        if label not in (1.0, -1.0):
            raise SvmParseError(f"line {lineno}: non-binary label {tokens[0]} (expected +1/-1)")
        prev = 0
        for tok in tokens[1:]:
            try:
                pos, val = tok.split(":", 1)
                i = int(pos)
                v = float(val)
            except ValueError:
                raise SvmParseError(f"line {lineno}: malformed feature '{tok}'") from None
            if not math.isfinite(v):
                raise SvmParseError(f"line {lineno}: non-finite feature value '{tok}'")
            if i < 1:
                raise SvmParseError(f"line {lineno}: feature index {i} out of range (indices are 1-based)")
            if i <= prev:
                raise SvmParseError(f"line {lineno}: feature indices not strictly increasing")
            prev = i
            indices.append(i - 1)
            values.append(v)
        # indices increase, so prev is the largest; as a column count it must fit int64
        if prev >= 2 ** 63:
            raise SvmParseError(f"line {lineno}: feature index {prev} out of range")
        indptr.append(len(indices))
        labels.append(label)
    if not labels:
        raise SvmParseError("no samples in input")
    shape = (len(labels), max(indices, default=-1) + 1)
    return SvmDataset(sp.csr_matrix((values, indices, indptr), shape=shape), np.array(labels))


def _signed_kernel(data: SvmDataset, sigma: float) -> DenseHessian:
    """Dual Hessian H = yy'∘K, RBF kernel: read-only, exactly symmetric, unit diagonal.

    Only the upper triangle is computed, in row blocks, each from one
    product ``X1[lo:hi] @ X2[lo:].T`` with X1 = [x, -||x||²/2, 1] and
    X2 = [x, 1, -||x||²/2], whose entries are -d²_ij/2; the strict upper
    part is then mirrored below the diagonal. H is the only n-by-n array;
    the one ``DenseHessian`` holding it is cached on ``data`` for this
    sigma, and another sigma replaces the cached entry. Raises ValueError,
    before H exists, if a sample's ||x||² is not finite.
    """
    if data._kernel is not None and data._kernel[0] == sigma:
        return data._kernel[1]
    object.__setattr__(data, "_kernel", None)  # free the old H before building
    x = data.samples.toarray()
    y = data.labels
    sq = np.einsum("ij,ij->i", x, x)  # no temporary; an overflow is inf without a warning
    bad = np.flatnonzero(~np.isfinite(sq))
    if len(bad):
        raise ValueError(f"sample {bad[0] + 1}: squared feature norm overflows the float range")
    n = len(x)
    half, ones = -0.5 * sq[:, None], np.ones((n, 1))
    x1 = np.hstack([x, half, ones])
    x2 = np.hstack([x, ones, half])
    h = np.empty((n, n))
    rows = max(1, _KERNEL_BLOCK // max(n, 1))
    # -d²/(2σ) below the float range is -inf, whose exp is the kernel's 0
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            blk = h[lo:hi, lo:]
            np.matmul(x1[lo:hi], x2[lo:].T, out=blk)
            np.minimum(blk, 0.0, out=blk)
            blk /= sigma  # after the cancellation: a tiny sigma gives -large, not NaN
            # K(x, x) = 1 exactly; ||x||² and the product round differently
            np.fill_diagonal(blk, 0.0)
            np.exp(blk, out=blk)
            blk *= y[lo:hi, None]
            blk *= y[lo:]
            h[hi:, lo:hi] = blk[:, hi - lo:].T
            for k in range(lo + 1, hi):
                h[k, lo:k] = h[lo:k, k]
    h.flags.writeable = False
    object.__setattr__(data, "_kernel", (sigma, DenseHessian(h)))
    return data._kernel[1]


def build_svm_dual(data: SvmDataset, cfg: SvmConfig) -> QpProblem:
    """Dual QP: min 1/2 a'Ha - a'e  s.t.  a'y = 0,  0 <= a <= c,
    with H_ij = y_i y_j K(x_i, x_j). H is built once per (dataset, sigma)
    and shared with ``extract_model``."""
    n = len(data)
    if n > MAX_PRECOMPUTED_SAMPLES:
        raise ValueError(f"{n} samples exceed the dense-kernel cap {MAX_PRECOMPUTED_SAMPLES}")
    # the dense feature matrix gets the entry budget of the largest kernel
    if n * data.n_features > MAX_PRECOMPUTED_SAMPLES ** 2:
        raise ValueError(f"{n} samples x {data.n_features} features exceed the "
                         f"dense-matrix cap of {MAX_PRECOMPUTED_SAMPLES ** 2} entries")
    if not (np.any(data.labels > 0) and np.any(data.labels < 0)):
        raise ValueError("dataset needs at least one sample of each class")
    y = data.labels
    return QpProblem(
        n=n,
        hessian=_signed_kernel(data, cfg.sigma),
        p=-np.ones(n),
        a=sp.csr_matrix((0, n)),
        lin_bounds=Bounds.free(0),
        c=sp.csr_matrix(y[None, :]),
        b=np.zeros(1),
        var_bounds=Bounds(np.zeros(n), np.full(n, cfg.c)),
    )


def extract_model(data: SvmDataset, cfg: SvmConfig, alpha: np.ndarray) -> SvmModel:
    """Recover the bias from free support vectors (or the KKT interval midpoint).

    The decision values g_j = sum_i alpha_i y_i K(x_i, x_j) = y_j (H alpha)_j
    (as y_j = ±1) take one product with the dual Hessian H of
    ``build_svm_dual``, built here only if ``data`` holds none for
    ``cfg.sigma``; the model keeps them."""
    alpha = np.asarray(alpha, dtype=np.float64)
    # relative to the largest alpha too: with a loose c (or c = inf) every
    # alpha can sit far below c
    tau = 1e-5 * min(cfg.c, alpha.max())
    support = np.where(alpha > tau)[0]
    if len(support) == 0:
        raise DegenerateModelError("no support vectors (all alpha at zero)")
    y = data.labels
    g = y * hessian_apply(_signed_kernel(data, cfg.sigma), alpha)
    free = np.where((alpha > tau) & (alpha < cfg.c - tau))[0]
    if len(free):
        bias = float(np.mean(y[free] - g[free]))
    else:
        # all support vectors at the box: bias lies in the KKT-implied interval
        upper_set = ((alpha <= tau) & (y > 0)) | ((alpha >= cfg.c - tau) & (y < 0))
        lower_set = ((alpha <= tau) & (y < 0)) | ((alpha >= cfg.c - tau) & (y > 0))
        cand = y - g
        hi = cand[upper_set].min() if np.any(upper_set) else cand.max()
        lo = cand[lower_set].max() if np.any(lower_set) else cand.min()
        bias = 0.5 * (lo + hi)
    return SvmModel(alpha=alpha, bias=bias, support_indices=support,
                    decision_values=g, dataset=data, config=cfg)


def predict(model: SvmModel, x: sp.csr_matrix) -> tuple[float, int]:
    """Decision value and label for one sample ``x``, a row of a canonical
    CSR matrix such as ``SvmDataset.samples[j]``; ties go to +1.

    Features past the training ``n_features`` meet only zeros in the
    support vectors, so they count in ||x||^2 alone. An ||x||^2 that
    overflows is a ValueError, as in training."""
    with np.errstate(over="ignore"):
        sq = float(x.data @ x.data)
    if not np.isfinite(sq):
        raise ValueError("squared feature norm overflows the float range")
    d = model.sv_rows.shape[1]
    inside = x.indices < d
    xd = np.zeros(d)
    xd[x.indices[inside]] = x.data[inside]
    d2 = (model.sv_sq + sq) - 2.0 * (model.sv_rows @ xd)
    k = np.exp(np.maximum(d2, 0.0) / (-2.0 * model.config.sigma))
    score = model.bias + float((model.sv_coef * k).sum())
    return score, (1 if score >= 0 else -1)


def training_accuracy(model: SvmModel) -> float:
    """Share of training samples whose score, the stored decision value
    plus the bias, has their label's sign (ties to +1); no kernel product."""
    g = model.decision_values + model.bias
    pred = np.where(g >= 0, 1.0, -1.0)
    return float(np.mean(pred == model.dataset.labels))
