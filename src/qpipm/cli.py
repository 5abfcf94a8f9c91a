"""Command-line interface: QP file format, trace CSV, solve/check commands.

Exit codes: 0 converged, 1 input error, 2 iteration limit, 3 linear solver
failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy.sparse as sp

from . import svm
from .ipm import IpmConfig, SolveReport, SolveStatus, TraceRecord, infeasibilities, solve
from .kkt import compute_residuals
from .linalg import PcgConfig
from .model import (Bounds, QpProblem, QuasiNewtonHessian, SparseHessian,
                    coo_json, validate_problem)

TRACE_HEADER = "iter,mu,primal_inf,dual_inf,compl_inf,cg_iters,cg_resid,alpha_x,alpha_lambda"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ITERATION_LIMIT = 2
EXIT_SOLVER_FAILURE = 3
EXIT_NUMERICAL_FAILURE = 4

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.ITERATION_LIMIT: EXIT_ITERATION_LIMIT,
    SolveStatus.LINEAR_SOLVER_FAILURE: EXIT_SOLVER_FAILURE,
    SolveStatus.NUMERICAL_FAILURE: EXIT_NUMERICAL_FAILURE,
}


class QpFileError(ValueError):
    """Problem file is malformed; message names the offending member."""


_TOP_MEMBERS = ("n", "hessian", "p", "A", "l", "u", "C", "b", "lx", "ux")
_COO_MEMBERS = ("rows", "cols", "vals")
_HESSIAN_MEMBERS = {"diagonal": ("kind", "d"), "coo": ("kind", *_COO_MEMBERS),
                    "bfgs": ("kind", "h0_diag", "u", "w")}


def _reject_unknown(doc: dict, prefix: str, known) -> None:
    for key in doc:
        if key not in known:
            raise QpFileError(f"unknown member '{prefix}{key}'")


def _required(doc: dict, name: str):
    if name not in doc:
        raise QpFileError(f"missing member '{name}'")
    return doc[name]


def _real_array(doc, name, null=None) -> np.ndarray:
    """``null``: the value a JSON null stands for; None rejects nulls."""
    raw = doc
    if not isinstance(raw, list):
        raise QpFileError(f"member '{name}' must be an array")
    out = np.empty(len(raw))
    for i, v in enumerate(raw):
        if v is None:
            if null is None:
                raise QpFileError(f"member '{name}' contains null at position {i}")
            out[i] = null
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            try:
                out[i] = float(v)
            except OverflowError:  # an integer beyond floats: inf, as json reads 1e400
                out[i] = np.inf if v > 0 else -np.inf
        else:
            raise QpFileError(f"member '{name}' contains non-numeric entry at position {i}")
    return out


def _index_array(raw, name, size) -> np.ndarray:
    if not isinstance(raw, list):
        raise QpFileError(f"member '{name}' must be an array")
    for i, v in enumerate(raw):
        if type(v) is not int:
            raise QpFileError(f"member '{name}' contains non-integer entry at position {i}")
        if not 0 <= v < size:
            raise QpFileError(f"member '{name}': coordinate index out of range at position {i}")
    return np.array(raw, dtype=np.int64)


def _bounds(doc, lname, uname, size) -> Bounds:
    """null means unbounded on that side; a missing member means ``size`` nulls."""
    lo = _real_array(doc.get(lname, [None] * size), lname, null=-np.inf)
    hi = _real_array(doc.get(uname, [None] * size), uname, null=np.inf)
    if len(lo) != len(hi):
        raise QpFileError(f"members '{lname}' and '{uname}' have different lengths")
    return Bounds(lo, hi)


def _coo_matrix(doc, name, shape) -> sp.spmatrix:
    """The coordinate triplets as given; ``QpProblem`` and ``SparseHessian``
    canonicalize them (duplicates summed) into their CSR copies."""
    if doc is None:
        return sp.csr_matrix(shape)
    if not isinstance(doc, dict):
        raise QpFileError(f"member '{name}' must be an object")
    _reject_unknown(doc, f"{name}.", _COO_MEMBERS)
    for key in _COO_MEMBERS:
        if key not in doc:
            raise QpFileError(f"member '{name}' is missing '{key}'")
    rows = _index_array(doc["rows"], f"{name}.rows", shape[0])
    cols = _index_array(doc["cols"], f"{name}.cols", shape[1])
    vals = _real_array(doc["vals"], f"{name}.vals")
    if not (len(rows) == len(cols) == len(vals)):
        raise QpFileError(f"member '{name}': rows/cols/vals lengths differ")
    return sp.coo_matrix((vals, (rows, cols)), shape=shape)


def _hessian(doc, n):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise QpFileError("member 'hessian' must be an object with a 'kind'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _HESSIAN_MEMBERS:
        raise QpFileError(f"member 'hessian.kind' has unknown value '{kind}'")
    _reject_unknown(doc, "hessian.", _HESSIAN_MEMBERS[kind])
    if kind == "diagonal":
        d = _real_array(_required(doc, "d"), "hessian.d")
        if len(d) != n:
            raise QpFileError("member 'hessian.d' has wrong length")
        return SparseHessian(sp.diags(d))
    if kind == "coo":
        coo = {key: doc[key] for key in _COO_MEMBERS if key in doc}
        return SparseHessian(_coo_matrix(coo, "hessian", (n, n)))
    h0 = _real_array(_required(doc, "h0_diag"), "hessian.h0_diag")
    if len(h0) != n:
        raise QpFileError("member 'hessian.h0_diag' has wrong length")
    w = _real_array(_required(doc, "w"), "hessian.w")
    u_rows = _required(doc, "u")
    if not isinstance(u_rows, list) or len(u_rows) != n:
        raise QpFileError("member 'hessian.u' must be an n-row array of arrays")
    rows = [_real_array(row, "hessian.u") for row in u_rows]
    if any(len(row) != len(w) for row in rows):
        raise QpFileError("member 'hessian.u' has inconsistent row lengths")
    return QuasiNewtonHessian(h0, np.array(rows).reshape(n, len(w)), w)


def parse_qp_document(doc: dict) -> QpProblem:
    if not isinstance(doc, dict):
        raise QpFileError("document root must be an object")
    _reject_unknown(doc, "", _TOP_MEMBERS)
    n = _required(doc, "n")
    if type(n) is not int or n < 0:
        raise QpFileError("member 'n' must be a nonnegative integer")
    p = _real_array(_required(doc, "p"), "p")
    if len(p) != n:  # before anything n-sized is built from an unchecked n
        raise QpFileError("member 'p' has wrong length")
    lin_bounds = _bounds(doc, "l", "u", 0)
    var_bounds = _bounds(doc, "lx", "ux", n)
    b = _real_array(doc.get("b", []), "b")
    return QpProblem(
        n=n,
        hessian=_hessian(_required(doc, "hessian"), n),
        p=p,
        a=_coo_matrix(doc.get("A"), "A", (len(lin_bounds), n)),
        lin_bounds=lin_bounds,
        c=_coo_matrix(doc.get("C"), "C", (len(b), n)),
        b=b,
        var_bounds=var_bounds,
    )


def _unique_members(pairs) -> dict:
    """json's object hook: a member stated twice is an error, not the last one."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise QpFileError(f"duplicate member '{key}'")
        doc[key] = value
    return doc


def load_qp_file(path: str) -> QpProblem:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_members)
    except OSError as exc:
        raise QpFileError(f"cannot read '{path}': {exc}") from exc
    except UnicodeDecodeError as exc:
        raise QpFileError(f"'{path}' is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QpFileError(f"'{path}' is not valid JSON: {exc}") from exc
    return parse_qp_document(doc)


def _finite_or_null(values) -> list:
    return [v if np.isfinite(v) else None for v in values]


def qp_document(problem: QpProblem) -> dict:
    """Serialize a problem back to the QP file dialect (round-trip safe; a
    ``"diagonal"`` Hessian is written as ``"coo"``, without zeros); the SVM
    dual's ``svm.SignedKernel``, the only Hessian without a file form, raises ValueError."""
    lin, var = problem.lin_bounds, problem.var_bounds
    return {
        "n": problem.n, "hessian": problem.hessian.to_json(), "p": problem.p.tolist(),
        "A": coo_json(problem.a), "l": _finite_or_null(lin.lower),
        "u": _finite_or_null(lin.upper), "C": coo_json(problem.c),
        "b": problem.b.tolist(), "lx": _finite_or_null(var.lower),
        "ux": _finite_or_null(var.upper),
    }


def write_trace(path: str, trace: list[TraceRecord]) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t in trace:
            fh.write(f"{t.iter},{t.mu:.9e},{t.primal_inf:.9e},{t.dual_inf:.9e},"
                     f"{t.compl_inf:.9e},{t.cg_iters},{t.cg_resid:.9e},"
                     f"{t.alpha_x:.9e},{t.alpha_lam:.9e}\n")


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for the iteration-limit outcome
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)


def _add_solver_flags(p: argparse.ArgumentParser):
    defaults = IpmConfig()
    p.add_argument("--mu-tol", type=float, default=defaults.mu_tol,
                   help="tolerance of the scaled primal, dual and complementarity "
                        "stopping test (default: %(default)s)")
    p.add_argument("--cg-tol", type=float, default=defaults.pcg.tol,
                   help="CG residual tolerance in (0, 1), relative to the "
                        "right-hand side (default: %(default)s)")
    p.add_argument("--cg-maxit", type=int, default=defaults.pcg.max_iters,
                   help="CG iteration cap (default: %(default)s)")
    p.add_argument("--max-iter", type=int, default=defaults.max_iters,
                   help="IPM iteration cap (default: %(default)s)")
    p.add_argument("--trace", metavar="PATH", help="write per-iteration trace CSV")
    p.add_argument("--solution", metavar="PATH", help="write solution document")
    p.add_argument("--verbose", action="store_true",
                   help="print one summary line per IPM iteration")


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or, when
    both exist, the same file under another path or a hard link."""
    return (os.path.realpath(a) == os.path.realpath(b)
            or os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


def _check_outputs(args) -> None:
    """Open each output path for appending, so that an unwritable one is a
    ValueError before the solve instead of a traceback after it. A path that
    did not exist before the probe is removed again at once, so an output
    file exists only once ``_finish`` writes it; a file that already existed
    is left as it is. Before any probe, an output that is the input file, or
    two outputs that are one file (``_same_file``), are a ValueError."""
    outputs = (("--solution", args.solution), ("--trace", args.trace))
    for flag, path in outputs:
        if path and _same_file(path, args.file):
            raise ValueError(f"{flag} names the input file")
    if args.solution and args.trace and _same_file(args.solution, args.trace):
        raise ValueError("--solution and --trace name the same file")
    for flag, path in outputs:
        if path:
            existed = os.path.lexists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ValueError(f"cannot write {flag} file '{path}': {exc}") from None
            if not existed:
                os.remove(path)


def _ipm_config(args) -> IpmConfig:
    return IpmConfig(mu_tol=args.mu_tol, max_iters=args.max_iter,
                     pcg=PcgConfig(tol=args.cg_tol, max_iters=args.cg_maxit))


def _report_summary(report: SolveReport, problem: QpProblem) -> dict:
    """The final iterate's measures are those of the solver's stopping test;
    inf when they overflow (a start point whose residuals are not finite)."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            res = compute_residuals(problem, report.state)
            primal, dual, compl = infeasibilities(res, report.state)
    except FloatingPointError:
        primal = dual = compl = np.inf
    return {
        "status": report.status.value,
        "objective": report.objective,
        "iterations": report.iterations,
        "primal_inf": primal,
        "dual_inf": dual,
        "compl_inf": compl,
        "wall_time": report.wall_time,
    }


def _finish(report: SolveReport, problem: QpProblem, args, extra: dict) -> int:
    summary = _report_summary(report, problem)
    summary.update(extra)
    if args.solution:
        doc = {key: None if isinstance(v, float) and not np.isfinite(v) else v
               for key, v in summary.items()}
        with open(args.solution, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if args.trace:
        write_trace(args.trace, report.trace)
    print(f"status={summary['status']} objective={summary['objective']:.9e} "
          f"iterations={summary['iterations']} primal_inf={summary['primal_inf']:.3e} "
          f"dual_inf={summary['dual_inf']:.3e}")
    return _STATUS_EXIT[report.status]


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def cmd_solve_qp(args) -> int:
    try:
        cfg = _ipm_config(args)
        problem = load_qp_file(args.file)
        _check_outputs(args)
    except ValueError as exc:  # out-of-range flag, QpFileError or unusable output
        return _input_error(exc)
    violations = validate_problem(problem)
    if violations:
        for v in violations:
            print(f"invalid problem: {v}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = solve(problem, cfg, verbose=args.verbose)
    return _finish(report, problem, args, {"x": report.x.tolist()})


def cmd_solve_svm(args) -> int:
    try:
        ipm_cfg = _ipm_config(args)
        cfg = svm.SvmConfig(sigma=args.sigma, c=args.c)
        with open(args.file, "rb") as fh:
            data = svm.parse_libsvm(fh.read())
        _check_outputs(args)
        problem = svm.build_svm_dual(data, cfg)
    except OSError as exc:
        return _input_error(f"cannot read '{args.file}': {exc}")
    except ValueError as exc:  # bad flag, SvmParseError, unusable dataset or output
        return _input_error(exc)
    report = solve(problem, ipm_cfg, verbose=args.verbose)
    extra: dict = {"alpha": report.x.tolist()}
    # after a solver failure alpha is no trained dual, so no model is reported
    if report.status in (SolveStatus.CONVERGED, SolveStatus.ITERATION_LIMIT):
        try:
            model = svm.extract_model(data, cfg, report.x)
            extra.update(bias=model.bias,
                         support_indices=model.support_indices.tolist(),
                         training_accuracy=svm.training_accuracy(model))
            print(f"training accuracy: {extra['training_accuracy']:.4f} "
                  f"({len(model.support_indices)} support vectors)")
        except svm.DegenerateModelError as exc:
            print(f"warning: {exc}", file=sys.stderr)
    return _finish(report, problem, args, extra)


def cmd_check(args) -> int:
    try:
        problem = load_qp_file(args.file)
    except ValueError as exc:  # QpFileError or a DimensionError from a part of the problem
        return _input_error(exc)
    violations = validate_problem(problem)
    if violations:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s)")
        return EXIT_INPUT_ERROR
    print(f"OK n={problem.n} m_A={problem.m_lin} m_E={problem.m_eq}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qpipm",
                     description="Interior point QP solver (doubly augmented KKT + PCG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_qp = sub.add_parser("solve-qp", help="solve a QP problem file")
    p_qp.add_argument("file")
    _add_solver_flags(p_qp)
    p_qp.set_defaults(func=cmd_solve_qp)

    p_svm = sub.add_parser("solve-svm", help="train an SVM dual from a LIBSVM file")
    p_svm.add_argument("file")
    p_svm.add_argument("--sigma", type=float, required=True, help="RBF kernel width")
    p_svm.add_argument("--c", type=float, required=True, help="box upper bound on alpha")
    _add_solver_flags(p_svm)
    p_svm.set_defaults(func=cmd_solve_svm)

    p_check = sub.add_parser("check", help="parse and validate a QP problem file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
