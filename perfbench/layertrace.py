"""Outside-in layer trace: wrappers around the public functions of each qpipm
module, installed on the attribute its caller looks up, plus the bare-kernel
floors the traced call counts are compared against.

A span is (name, start, end, parent index). Spans stay in memory while the
workload runs; ``write`` dumps them afterwards. A layer's self time is its
spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np
import scipy.sparse as sp

# (owner, attribute, span name). ``ipm`` imports its kkt/linalg helpers by
# name, so those are wrapped in qpipm.ipm, where solve() looks them up.
TARGETS = (
    ("qpipm.cli", "load_qp_file", "cli.load_qp_file"),
    ("qpipm.model", "validate_problem", "model.validate_problem"),
    ("qpipm.model", "box_qp", "model.box_qp"),
    ("qpipm.model", "hessian_apply", "model.hessian_apply"),
    ("qpipm.kkt", "hessian_apply", "model.hessian_apply"),
    ("qpipm.svm", "parse_libsvm", "svm.parse_libsvm"),
    ("qpipm.svm", "build_svm_dual", "svm.build_svm_dual"),
    ("qpipm.svm", "extract_model", "svm.extract_model"),
    ("qpipm.svm", "training_accuracy", "svm.training_accuracy"),
    ("qpipm.svm", "predict", "svm.predict"),
    ("qpipm.ipm", "solve", "ipm.solve"),
    ("qpipm.ipm", "initialize", "ipm.initialize"),
    ("qpipm.ipm", "step_lengths", "ipm.step_lengths"),
    ("qpipm.ipm", "apply_step", "ipm.apply_step"),
    ("qpipm.ipm", "infeasibilities", "ipm.infeasibilities"),
    ("qpipm.ipm", "update_barrier", "ipm.update_barrier"),
    ("qpipm.ipm", "compute_residuals", "kkt.compute_residuals"),
    ("qpipm.cli", "compute_residuals", "kkt.compute_residuals"),
    ("qpipm.cli", "infeasibilities", "ipm.infeasibilities"),
    ("qpipm.ipm", "build_operator", "kkt.build_operator"),
    ("qpipm.ipm", "assemble_rhs", "kkt.assemble_rhs"),
    ("qpipm.ipm", "recover_directions", "kkt.recover_directions"),
    ("qpipm.ipm", "jacobi_diagonal", "kkt.jacobi_diagonal"),
    ("qpipm.ipm", "apply_doubly_augmented", "kkt.apply_doubly_augmented"),
    ("qpipm.kkt.KktOperator", "apply_b", "kkt.apply_b"),
    ("qpipm.kkt.KktOperator", "apply_bt", "kkt.apply_bt"),
    ("qpipm.kkt.KktOperator", "apply_q", "kkt.apply_q"),
    ("qpipm.ipm", "pcg", "linalg.pcg"),
)


def _owner(path: str):
    """Module or class named by a dotted path, or None if it does not exist."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls, None)


class Tracer:
    """Installs span-recording wrappers on TARGETS; ``remove`` restores them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.missing: list[str] = []
        self.pcg = {"calls": 0, "iterations": 0, "converged": 0,
                    "capped": 0, "breakdowns": 0}

    def install(self) -> None:
        from qpipm.linalg import PcgBreakdownError
        self._breakdown = PcgBreakdownError
        for path, attr, name in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                # a refactor moved or renamed it: its layer metrics read 0
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            wrapper = self._pcg_wrapper if name == "linalg.pcg" else self._wrapper
            setattr(owner, attr, wrapper(original, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def installed(self) -> bool:
        return bool(self._saved)

    def _wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
        return traced

    def _pcg_wrapper(self, fn, name):
        inner = self._wrapper(fn, name)
        tally = self.pcg

        @functools.wraps(fn)
        def traced(apply_op, apply_prec, rhs, cfg, *args, **kwargs):
            tally["calls"] += 1
            try:
                result = inner(apply_op, apply_prec, rhs, cfg, *args, **kwargs)
            except self._breakdown as exc:
                tally["breakdowns"] += 1
                tally["iterations"] += exc.result.iterations
                raise
            tally["iterations"] += result.iterations
            tally["converged"] += bool(result.converged)
            tally["capped"] += result.iterations >= cfg.max_iters
            return result
        return traced

    def _self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _), own in zip(self.spans, self._self_times()):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += own
        return dict(out)

    def self_sum_under(self, root: str) -> float:
        """Sum of self times of every span inside a ``root`` span, root included."""
        inside: list[bool] = []
        for name, _, _, parent in self.spans:
            inside.append(name == root or (parent >= 0 and inside[parent]))
        return sum(own for own, keep in zip(self._self_times(), inside) if keep)

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent index]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def time_products(product, vector, count: int) -> float:
    """Seconds for ``count`` calls of ``product(vector)``."""
    start = time.perf_counter()
    for _ in range(count):
        product(vector)
    return time.perf_counter() - start


def b_floor_seconds(c: sp.spmatrix, a: sp.spmatrix, lower, upper,
                    n_b: int, n_bt: int) -> float:
    """Bare time of n_b products with the stacked CSR B = [C; A_l; -A_u] and
    n_bt with its transposed CSR, both built once. A_l / A_u are the rows of
    A with a finite lower / upper bound."""
    b = sp.vstack([c, a[np.isfinite(lower)], -a[np.isfinite(upper)]], format="csr")
    bt = b.T.tocsr()
    rng = np.random.default_rng(0)
    return (time_products(b.__matmul__, rng.standard_normal(b.shape[1]), n_b)
            + time_products(bt.__matmul__, rng.standard_normal(b.shape[0]), n_bt))
