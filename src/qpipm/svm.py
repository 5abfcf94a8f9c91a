"""SVM dual frontend: LIBSVM parsing, RBF kernel, dual QP construction,
bias recovery and prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import Bounds, DenseHessian, QpProblem, SparseMatrix, hessian_apply

MAX_PRECOMPUTED_SAMPLES = 20000
# Entries per row block of the in-place kernel build: small enough that a
# block stays in cache across its elementwise passes.
_KERNEL_BLOCK = 1 << 16


class SvmParseError(ValueError):
    """Malformed LIBSVM input; message carries the line number."""


class DegenerateModelError(RuntimeError):
    """No support vectors: the trained dual carries no information."""


@dataclass(frozen=True)
class SparseVector:
    """Sparse feature vector with strictly increasing 0-based indices."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def squared_norm(self) -> float:
        return float(self.values @ self.values)


def _dense_rows(samples, n_features: int) -> np.ndarray:
    x = np.zeros((len(samples), n_features))
    for i, s in enumerate(samples):
        x[i, s.indices] = s.values
    return x


@dataclass(frozen=True)
class SvmDataset:
    samples: list[SparseVector]
    labels: np.ndarray
    n_features: int
    # (sigma, H): the last signed kernel built, see _signed_kernel
    _kernel: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))

    def __len__(self):
        return len(self.samples)

    def dense_matrix(self) -> np.ndarray:
        return _dense_rows(self.samples, self.n_features)


@dataclass(frozen=True)
class SvmConfig:
    sigma: float
    c: float

    def __post_init__(self):
        if not (self.sigma > 0 and self.c > 0):  # NaN fails too
            raise ValueError("sigma and c must be positive")


@dataclass(frozen=True)
class SvmModel:
    """Trained model. ``predict`` reads the support vectors' dense rows
    ``sv_rows``, their squared norms ``sv_sq`` and ``sv_coef = alpha_i y_i``,
    all derived from the other fields on construction."""

    alpha: np.ndarray
    bias: float
    support_indices: np.ndarray
    dataset: SvmDataset
    config: SvmConfig
    sv_rows: np.ndarray = field(init=False, compare=False, repr=False)
    sv_sq: np.ndarray = field(init=False, compare=False, repr=False)
    sv_coef: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        data, sv = self.dataset, self.support_indices
        rows = _dense_rows([data.samples[i] for i in sv], data.n_features)
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
    samples: list[SparseVector] = []
    labels: list[float] = []
    n_features = 0
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
        idx: list[int] = []
        vals: list[float] = []
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
            idx.append(i - 1)
            vals.append(v)
        n_features = max(n_features, prev)
        samples.append(SparseVector(np.array(idx, dtype=np.int64), np.array(vals)))
        labels.append(label)
    if not samples:
        raise SvmParseError("no samples in input")
    return SvmDataset(samples=samples, labels=np.array(labels), n_features=n_features)


def _signed_kernel(data: SvmDataset, sigma: float) -> np.ndarray:
    """H = yy'∘K for the RBF kernel, read-only and exactly symmetric.

    Built in the one n-by-n array that ``x @ x.T`` allocates and cached on
    ``data`` for this sigma; another sigma replaces the cached entry.
    """
    if data._kernel is not None and data._kernel[0] == sigma:
        return data._kernel[1]
    object.__setattr__(data, "_kernel", None)  # free the old H before building
    x = data.dense_matrix()
    y = data.labels
    sq = (x * x).sum(axis=1)
    h = x @ x.T  # numpy computes x x' as a symmetric rank-k update: exactly symmetric
    n = len(h)
    rows = max(1, _KERNEL_BLOCK // max(n, 1))
    pair = np.empty((rows, n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        blk, t = h[lo:hi], pair[:hi - lo]
        # (sq_i + sq_j) - 2 g_ij in this order keeps d2 exactly symmetric
        np.add(sq[lo:hi, None], sq, out=t)
        blk *= 2.0
        np.subtract(t, blk, out=blk)
        np.maximum(blk, 0.0, out=blk)
        blk /= -2.0 * sigma
        np.exp(blk, out=blk)
        blk *= y[lo:hi, None]
        blk *= y
    h.flags.writeable = False
    object.__setattr__(data, "_kernel", (sigma, h))
    return h


def build_svm_dual(data: SvmDataset, cfg: SvmConfig) -> QpProblem:
    """Dual QP: min 1/2 a'Ha - a'e  s.t.  a'y = 0,  0 <= a <= c,
    with H_ij = y_i y_j K(x_i, x_j). H is built once per (dataset, sigma)
    and shared with ``extract_model`` and ``training_accuracy``."""
    n = len(data)
    if n > MAX_PRECOMPUTED_SAMPLES:
        raise ValueError(f"{n} samples exceed the dense-kernel cap {MAX_PRECOMPUTED_SAMPLES}")
    if not (np.any(data.labels > 0) and np.any(data.labels < 0)):
        raise ValueError("dataset needs at least one sample of each class")
    y = data.labels
    return QpProblem(
        n=n,
        hessian=DenseHessian(_signed_kernel(data, cfg.sigma)),
        p=-np.ones(n),
        a=sp.csr_matrix((0, n)),
        lin_bounds=Bounds.free(0),
        c=SparseMatrix.from_coo(1, n, np.zeros(n, dtype=np.int64), np.arange(n), y),
        b=np.zeros(1),
        var_bounds=Bounds(np.zeros(n), np.full(n, cfg.c)),
    )


def _decision_values(data: SvmDataset, cfg: SvmConfig, alpha: np.ndarray) -> np.ndarray:
    """g_j = sum_i alpha_i y_i K(x_i, x_j) = y_j (H alpha)_j (as y_j = ±1),
    without the bias."""
    h = DenseHessian(_signed_kernel(data, cfg.sigma))
    return data.labels * hessian_apply(h, alpha)


def extract_model(data: SvmDataset, cfg: SvmConfig, alpha: np.ndarray) -> SvmModel:
    """Recover the bias from free support vectors (or the KKT interval midpoint).

    The decision values reuse the dual Hessian H of ``build_svm_dual``; it is
    built here only if ``data`` holds none for ``cfg.sigma``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    # hard margin (c = inf): the threshold scales with the largest alpha instead
    tau = 1e-5 * (cfg.c if np.isfinite(cfg.c) else alpha.max())
    support = np.where(alpha > tau)[0]
    if len(support) == 0:
        raise DegenerateModelError("no support vectors (all alpha at zero)")
    g = _decision_values(data, cfg, alpha)
    y = data.labels
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
                    dataset=data, config=cfg)


def predict(model: SvmModel, x: SparseVector) -> tuple[float, int]:
    """Decision value and label for one sample; ties go to +1.

    Features past the training ``n_features`` meet only zeros in the
    support vectors, so they count in ||x||^2 alone."""
    d = model.sv_rows.shape[1]
    inside = x.indices < d
    xd = np.zeros(d)
    xd[x.indices[inside]] = x.values[inside]
    d2 = (model.sv_sq + x.squared_norm()) - 2.0 * (model.sv_rows @ xd)
    k = np.exp(np.maximum(d2, 0.0) / (-2.0 * model.config.sigma))
    score = model.bias + float((model.sv_coef * k).sum())
    return score, (1 if score >= 0 else -1)


def training_accuracy(model: SvmModel) -> float:
    g = _decision_values(model.dataset, model.config, model.alpha) + model.bias
    pred = np.where(g >= 0, 1.0, -1.0)
    return float(np.mean(pred == model.dataset.labels))
