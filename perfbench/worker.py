"""One workload process: load the generated inputs, run setup -> solve ->
extract (and predict on svm_dual) through the entry points ``qpipm solve-qp`` /
``solve-svm`` use, time each phase from outside, and check every result
with this file's own numpy.

Usage (normally started by run.py, with the BLAS thread count fixed):
    python3 perfbench/worker.py --workload W --inputs DIR --seconds S
    python3 perfbench/worker.py --workload W --inputs DIR --single
    python3 perfbench/worker.py --workload W --inputs DIR --traced

The first form runs passes for S seconds (at least MIN_PASSES), the second
one untraced pass, the third one traced pass.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from qpipm import cli, ipm, model, svm

import inputs
import layertrace

MIN_PASSES = 3

# Seconds each pass spends repeating setup and extract (at least one call).
SETUP_BUDGET_S = 0.5
EXTRACT_BUDGET_S = 0.25

# Tolerances of the independent checks (all infinity norms).
TOL = {
    "sparse_qp.primal": 1e-4,        # |Cx-b|, bound violations of Ax and x
    "sparse_qp.stationarity": 1e-4,  # |Hx+p-B'lambda-lambda_x|
    "sparse_qp.complementarity": 1e-4,  # lambda * slack, slacks from x
    # |x - P[l,u](x - (Hx+p))|: at termination a bounded x_i may sit a slack
    # s_i from its bound with lambda_i * s_i ~ mu, so up to sqrt(mu_tol)
    "bfgs_box.projected_gradient": 1e-3,
    "svm_dual.equality": 1e-4,       # |y'alpha|
    "svm_dual.box": 1e-8,            # alpha outside [0, c]
    "svm_dual.bias": 1e-4,           # bias against free support vectors
    "svm_dual.predict": 1e-9,        # predict() against this file's scores
    "svm_dual.heldout_accuracy": 0.6,  # lower limit on 100 held-out samples
}


# ---------------------------------------------------------------- reference
def _coo(doc, shape):
    if doc is None:
        return sp.csr_matrix(shape)
    return sp.csr_matrix((doc["vals"], (doc["rows"], doc["cols"])), shape=shape)


def _bound(values, fill):
    return np.array([fill if v is None else v for v in values], dtype=float)


def _read_libsvm(path: Path, n_features: int = 119):
    lines = path.read_text().split("\n")
    rows = [ln.split() for ln in lines if ln.strip()]
    y = np.array([float(r[0]) for r in rows])
    x = np.zeros((len(rows), n_features))
    for i, r in enumerate(rows):
        for tok in r[1:]:
            j, v = tok.split(":")
            x[i, int(j) - 1] = float(v)
    return x, y


def load_reference(workload: str, path: Path) -> dict:
    """The problem data, read from the input files without qpipm."""
    if workload == "sparse_qp":
        doc = json.loads((path / "problem.json").read_text())
        n = doc["n"]
        m_a, m_e = len(doc["l"]), len(doc["b"])
        return {"h": _coo(doc["hessian"], (n, n)), "p": np.array(doc["p"]),
                "a": _coo(doc["A"], (m_a, n)), "c": _coo(doc["C"], (m_e, n)),
                "b": np.array(doc["b"], dtype=float),
                "l": _bound(doc["l"], -np.inf), "u": _bound(doc["u"], np.inf),
                "lx": _bound(doc["lx"], -np.inf), "ux": _bound(doc["ux"], np.inf)}
    if workload == "bfgs_box":
        with np.load(path / "problem.npz") as z:
            return {k: z[k] for k in z.files}
    x, y = _read_libsvm(path / "train.libsvm")
    xt, yt = _read_libsvm(path / "heldout.libsvm")
    return {"x": x, "y": y, "xt": xt, "yt": yt}


# ------------------------------------------------------------------- checks
def _scatter(n, finite, values):
    out = np.zeros(n)
    out[np.where(finite)[0]] = values
    return out


def _violation(lo, v, hi):
    gap = np.maximum(np.where(np.isfinite(lo), lo - v, -np.inf),
                     np.where(np.isfinite(hi), v - hi, -np.inf))
    return float(max(gap.max(initial=0.0), 0.0))


def check_sparse_qp(ref, report) -> dict:
    x, st = report.x, report.state
    ax = ref["a"] @ x
    n, m_a = len(x), len(ax)
    lam_a = (_scatter(m_a, np.isfinite(ref["l"]), st.lam_lA)
             - _scatter(m_a, np.isfinite(ref["u"]), st.lam_uA))
    lam_x = (_scatter(n, np.isfinite(ref["lx"]), st.lam_lx)
             - _scatter(n, np.isfinite(ref["ux"]), st.lam_ux))
    grad = ref["h"] @ x + ref["p"] - ref["c"].T @ st.lam_e - ref["a"].T @ lam_a - lam_x
    compl = max(
        float(np.max(np.abs(st.lam_lA * (ax - ref["l"])[np.isfinite(ref["l"])]), initial=0)),
        float(np.max(np.abs(st.lam_uA * (ref["u"] - ax)[np.isfinite(ref["u"])]), initial=0)),
        float(np.max(np.abs(st.lam_lx * (x - ref["lx"])[np.isfinite(ref["lx"])]), initial=0)),
        float(np.max(np.abs(st.lam_ux * (ref["ux"] - x)[np.isfinite(ref["ux"])]), initial=0)))
    multipliers = np.concatenate([st.lam_lA, st.lam_uA, st.lam_lx, st.lam_ux])
    return {
        "sparse_qp.primal": max(float(np.max(np.abs(ref["c"] @ x - ref["b"]), initial=0)),
                                _violation(ref["l"], ax, ref["u"]),
                                _violation(ref["lx"], x, ref["ux"])),
        "sparse_qp.stationarity": float(np.max(np.abs(grad))),
        # a negative inequality multiplier is a complementarity failure too
        "sparse_qp.complementarity": compl if multipliers.min(initial=0) >= 0 else np.inf,
    }


def check_bfgs_box(ref, report) -> dict:
    x = report.x
    hx = ref["h0"] * x + ref["u"] @ (ref["w"] * (ref["u"].T @ x))
    proj = np.clip(x - (hx + ref["p"]), ref["lower"], ref["upper"])
    return {"bfgs_box.projected_gradient": float(np.max(np.abs(x - proj)))}


def _rbf(a, b):
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * inputs.SVM_SIGMA))


def check_svm_dual(ref, report, bias) -> dict:
    alpha, y = report.x, ref["y"]
    c, tau = inputs.SVM_C, 1e-5 * inputs.SVM_C
    support = alpha > tau
    g = _rbf(ref["x"], ref["x"][support]) @ (alpha * y)[support]
    free = support & (alpha < c - tau)
    return {
        "svm_dual.equality": float(abs(y @ alpha)),
        "svm_dual.box": float(max(-alpha.min(), alpha.max() - c, 0.0)),
        "svm_dual.bias": float(abs(bias - np.mean(y[free] - g[free]))) if free.any() else 0.0,
    }


def check_heldout(ref, report, bias, scores) -> dict:
    alpha, y = report.x, ref["y"]
    support = alpha > 1e-5 * inputs.SVM_C
    own = _rbf(ref["xt"], ref["x"][support]) @ (alpha * y)[support] + bias
    return {
        "svm_dual.predict": float(np.max(np.abs(scores - own))),
        "svm_dual.heldout_accuracy": float(np.mean(np.where(own >= 0, 1.0, -1.0)
                                                   == ref["yt"])),
    }


def failed_checks(values: dict) -> list[str]:
    bad = []
    for name, value in values.items():
        ok = value >= TOL[name] if name.endswith("accuracy") else value <= TOL[name]
        if not ok:
            bad.append(f"{name}={value:.3e} (limit {TOL[name]:.0e})")
    return bad


# --------------------------------------------------------------- workload
def setup(workload: str, path: Path):
    """Input file -> validated QpProblem, as solve-qp / solve-svm do it."""
    if workload == "sparse_qp":
        problem = cli.load_qp_file(str(path / "problem.json"))
        data = None
    elif workload == "bfgs_box":
        with np.load(path / "problem.npz") as z:
            hessian = model.QuasiNewtonHessian(z["h0"], z["u"], z["w"])
            problem = model.box_qp(hessian, z["p"], z["lower"], z["upper"])
        data = None
    else:
        with open(path / "train.libsvm", "rb") as fh:
            data = svm.parse_libsvm(fh.read())
        problem = svm.build_svm_dual(data, svm.SvmConfig(inputs.SVM_SIGMA, inputs.SVM_C))
        return problem, data
    violations = model.validate_problem(problem)
    if violations:
        raise ValueError(f"invalid generated problem: {violations[0]}")
    return problem, data


def _repeat(step, budget_s: float):
    """Run ``step`` until ``budget_s`` seconds are spent (at least once);
    return the median time of one call and the last result."""
    times = []
    while not times or sum(times) < budget_s:
        t0 = time.perf_counter()
        result = step()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_once(workload: str, path: Path, ref: dict, heldout=None,
             repeat: bool = True) -> dict:
    """One setup -> solve -> extract pass with its checks; on svm_dual with
    ``heldout`` samples, also the predict calls and the held-out check.

    Setup and extract are short on some workloads, so with ``repeat`` each
    runs for a fixed time budget and is reported as the median of its calls.
    """
    gc.collect()
    setup_s, (problem, data) = _repeat(lambda: setup(workload, path),
                                       SETUP_BUDGET_S if repeat else 0.0)
    t0 = time.perf_counter()
    report = ipm.solve(problem, ipm.IpmConfig())
    solve_s = time.perf_counter() - t0

    def extract():
        # the summary every CLI solve prints, then the SVM model it reports
        cli._report_summary(report, problem)
        if data is None:
            return None
        fitted = svm.extract_model(
            data, svm.SvmConfig(inputs.SVM_SIGMA, inputs.SVM_C), report.x)
        svm.training_accuracy(fitted)
        return fitted

    extract_s, fitted = _repeat(extract, EXTRACT_BUDGET_S if repeat else 0.0)
    out = {"setup_s": setup_s, "solve_s": solve_s, "extract_s": extract_s,
           "status": report.status.value, "ipm_iterations": report.iterations,
           "pcg_iterations": sum(r.cg_iters for r in report.trace),
           "objective": report.objective}
    if workload == "sparse_qp":
        values = check_sparse_qp(ref, report)
    elif workload == "bfgs_box":
        values = check_bfgs_box(ref, report)
    else:
        values = check_svm_dual(ref, report, fitted.bias)
        if heldout is not None:
            t0 = time.perf_counter()
            scores = np.array([svm.predict(fitted, s)[0] for s in heldout.samples])
            out["predict_s"] = time.perf_counter() - t0
            out["predict_count"] = len(scores)
            values.update(check_heldout(ref, report, fitted.bias, scores))
    out["checks"] = values
    out["failures"] = failed_checks(values)
    if report.status.value != "converged":
        out["failures"].append(f"status {report.status.value}")
    return out


def floor_operands(workload: str, ref: dict):
    """B's parts (C, A, lower, upper) and a bare Hessian product, from the
    input files alone."""
    if workload == "sparse_qp":
        return (ref["c"], ref["a"], ref["l"], ref["u"]), ref["h"].__matmul__
    none = np.zeros(0)
    if workload == "bfgs_box":
        h0, u, w = ref["h0"], ref["u"], ref["w"]
        empty = sp.csr_matrix((0, len(h0)))
        return (empty, empty, none, none), lambda v: h0 * v + u @ (w * (u.T @ v))
    y = ref["y"]
    h = np.outer(y, y) * _rbf(ref["x"], ref["x"])
    return (sp.csr_matrix(y[None, :]), sp.csr_matrix((0, len(y))), none, none), h.__matmul__


def traced_once(workload, path, ref, heldout, spans_path: Path) -> dict:
    """One pass without repeats under the layer trace, then the bare-kernel
    floors for the traced call counts."""
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rep = run_once(workload, path, ref, heldout, repeat=False)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    layers = tracer.layer_totals()

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    b_parts, h_product = floor_operands(workload, ref)
    v = np.random.default_rng(0).standard_normal(b_parts[0].shape[1])
    rep["trace"] = {
        "layers": layers,
        "pcg": tracer.pcg,
        "missing": tracer.missing,
        "self_sum_s": tracer.self_sum_under("ipm.solve"),
        "solve_span_s": layers["ipm.solve"]["total_s"],
        "b_floor_s": layertrace.b_floor_seconds(
            *b_parts, calls("kkt.apply_b"), calls("kkt.apply_bt")),
        "hessian_floor_s": layertrace.time_products(
            h_product, v, calls("model.hessian_apply")),
        "wrappers_removed": not tracer.installed(),
    }
    return rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--single", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    ref = load_reference(args.workload, args.inputs)
    heldout = None
    if args.workload == "svm_dual":
        heldout = svm.parse_libsvm((args.inputs / "heldout.libsvm").read_bytes())

    if args.traced:
        reps = [traced_once(args.workload, args.inputs, ref, heldout,
                            args.inputs / "spans.jsonl")]
    elif args.single:
        reps = [run_once(args.workload, args.inputs, ref, heldout)]
    else:
        # passes until the next one would end after --seconds; predict and
        # the held-out check run in the first pass only
        reps, durations, start = [], [], time.perf_counter()
        while len(reps) < MIN_PASSES or (time.perf_counter() - start
                                         + statistics.median(durations) <= args.seconds):
            t0 = time.perf_counter()
            reps.append(run_once(args.workload, args.inputs, ref,
                                 None if reps else heldout))
            durations.append(time.perf_counter() - t0)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"reps": reps, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
