import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_hessian, sparse_from_dense, sparse_to_dense
from qpipm import svm
from qpipm.cli import (TRACE_HEADER, QpFileError, _report_summary,
                       build_parser, load_qp_file, main, parse_qp_document,
                       qp_document, write_trace)
from qpipm.ipm import IpmConfig, SolveStatus, TraceRecord, solve
from qpipm.linalg import PcgConfig
from qpipm.model import (BoundIndexMap, DiagonalHessian, QuasiNewtonHessian,
                         SparseHessian, box_qp, validate_problem)


README = Path(__file__).resolve().parents[1] / "README.md"


def read_trace(path: str) -> list[TraceRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header}")
        for line in fh:
            f = line.strip().split(",")
            records.append(TraceRecord(
                iter=int(f[0]), mu=float(f[1]), primal_inf=float(f[2]),
                dual_inf=float(f[3]), compl_inf=float(f[4]), cg_iters=int(f[5]),
                cg_resid=float(f[6]), alpha_x=float(f[7]), alpha_lam=float(f[8])))
    return records


def box_qp_doc():
    """min 1/2 (x - 2)^2 with 0 <= x <= 10."""
    return {
        "n": 1,
        "hessian": {"kind": "diagonal", "d": [1.0]},
        "p": [-2.0],
        "lx": [0.0],
        "ux": [10.0],
    }


@pytest.fixture
def qp_path(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(box_qp_doc()))
    return str(path)


class TestQpFile:
    def test_parse_minimal(self, qp_path):
        p = load_qp_file(qp_path)
        assert p.n == 1
        assert p.m_lin == 0 and p.m_eq == 0
        np.testing.assert_array_equal(p.var_bounds.lower, [0.0])

    def test_null_means_unbounded(self):
        doc = box_qp_doc()
        doc["ux"] = [None]
        p = parse_qp_document(doc)
        assert np.isinf(p.var_bounds.upper[0])

    def test_missing_member_named(self):
        doc = box_qp_doc()
        del doc["p"]
        with pytest.raises(Exception, match="'p'"):
            parse_qp_document(doc)

    def test_bad_hessian_kind_named(self):
        doc = box_qp_doc()
        doc["hessian"] = {"kind": "dense"}
        with pytest.raises(Exception, match="hessian.kind"):
            parse_qp_document(doc)

    @pytest.mark.parametrize("member, edit", [
        ("la", lambda d: d.update(la=[0.0])),
        ("hessian.h0", lambda d: d["hessian"].update(h0=[1.0])),
        ("hessian.shape", lambda d: d.update(hessian={
            "kind": "coo", "rows": [0], "cols": [0], "vals": [1.0], "shape": [1, 1]})),
        ("hessian.d", lambda d: d.update(hessian={
            "kind": "bfgs", "h0_diag": [1.0], "u": [[]], "w": [], "d": [1.0]})),
        ("A.shape", lambda d: d.update(
            A={"rows": [0], "cols": [0], "vals": [1.0], "shape": [1, 1]},
            l=[0.0], u=[1.0])),
        ("C.n_rows", lambda d: d.update(
            C={"rows": [], "cols": [], "vals": [], "n_rows": 0})),
    ])
    def test_unknown_member_named(self, member, edit):
        doc = box_qp_doc()
        edit(doc)
        with pytest.raises(QpFileError, match=f"unknown member '{re.escape(member)}'"):
            parse_qp_document(doc)

    @pytest.mark.parametrize("rows", [[0.7], "x", [True], [None], 0])
    def test_non_integer_index_array_named(self, rows, tmp_path, capsys):
        doc = box_qp_doc()
        doc.update(A={"rows": rows, "cols": [0], "vals": [1.0]}, l=[0.0], u=[1.0])
        with pytest.raises(QpFileError, match="'A.rows'"):
            parse_qp_document(doc)
        path = tmp_path / "bad_rows.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert "'A.rows'" in capsys.readouterr().err

    def test_ragged_bfgs_rows_named(self):
        doc = box_qp_doc()
        doc.update(n=2, p=[0.0, 0.0], lx=[0.0, 0.0], ux=[1.0, 1.0],
                   hessian={"kind": "bfgs", "h0_diag": [1.0, 1.0],
                            "u": [[1.0], [1.0, 2.0]], "w": [1.0]})
        with pytest.raises(QpFileError, match="'hessian.u' has inconsistent row lengths"):
            parse_qp_document(doc)

    def test_readme_example_solves(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        problem = parse_qp_document(json.loads(block))
        assert problem.m_lin == 1
        report = solve(problem)
        assert report.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(report.x, [1.0, 0.0], atol=1e-4)
        assert report.objective == pytest.approx(-1.5, abs=1e-4)

    def test_readme_python_examples_run(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 2
        for block in blocks:
            exec(block, {})
        assert capsys.readouterr().out.count("\n") == 2

    def test_coo_and_bfgs_round_trip(self, rng):
        n = 4
        dense = rng.standard_normal((n, n))
        dense = dense + dense.T
        from qpipm.model import Bounds, QpProblem
        for hess in (DiagonalHessian(rng.uniform(1, 2, n)),
                     SparseHessian(sparse_from_dense(dense)),
                     QuasiNewtonHessian(rng.uniform(1, 2, n),
                                        rng.standard_normal((n, 2)),
                                        rng.uniform(0.1, 1, 2))):
            p = QpProblem(
                n=n, hessian=hess, p=rng.standard_normal(n),
                a=sparse_from_dense(rng.standard_normal((2, n))),
                lin_bounds=Bounds([0.0, -np.inf], [np.inf, 3.0]),
                c=sparse_from_dense(rng.standard_normal((1, n))),
                b=[1.0],
                var_bounds=Bounds([0.0] * n, [np.inf] + [2.0] * (n - 1)))
            doc = qp_document(p)
            q = parse_qp_document(json.loads(json.dumps(doc)))
            np.testing.assert_allclose(dense_hessian(q.hessian),
                                       dense_hessian(p.hessian), rtol=1e-15)
            np.testing.assert_array_equal(sparse_to_dense(q.a), sparse_to_dense(p.a))
            np.testing.assert_array_equal(sparse_to_dense(q.c), sparse_to_dense(p.c))
            np.testing.assert_array_equal(q.lin_bounds.lower, p.lin_bounds.lower)
            np.testing.assert_array_equal(q.var_bounds.upper, p.var_bounds.upper)
            np.testing.assert_array_equal(q.p, p.p)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        records = [TraceRecord(iter=1, mu=1.0, primal_inf=0.5, dual_inf=1e-3,
                               compl_inf=2e-7, cg_iters=12, cg_resid=3.21e-8,
                               alpha_x=0.99, alpha_lam=1.0),
                   TraceRecord(iter=2, mu=0.1, primal_inf=1e-12, dual_inf=0.0,
                               compl_inf=4.5e-5, cg_iters=500, cg_resid=1e-7,
                               alpha_x=0.123456789, alpha_lam=0.5)]
        path = str(tmp_path / "trace.csv")
        write_trace(path, records)
        back = read_trace(path)
        assert back == [
            TraceRecord(**{k: pytest.approx(v, rel=1e-9) if isinstance(v, float) else v
                           for k, v in r.__dict__.items()})
            for r in records]

    def test_csv_has_no_cg_converged_column(self, tmp_path):
        record = TraceRecord(iter=1, mu=1.0, primal_inf=0.5, dual_inf=1e-3,
                             compl_inf=2e-7, cg_iters=12, cg_resid=3.21e-8,
                             alpha_x=0.99, alpha_lam=1.0, cg_converged=True)
        path = str(tmp_path / "trace.csv")
        write_trace(path, [record])
        assert open(path).read().splitlines()[1].count(",") == 8
        assert read_trace(path)[0].cg_converged is None

    def test_header(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        write_trace(path, [])
        assert open(path).read().strip() == TRACE_HEADER


class TestSolveQpCommand:
    def test_box_qp_solves(self, qp_path, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        trace = str(tmp_path / "trace.csv")
        code = main(["solve-qp", qp_path, "--solution", sol, "--trace", trace])
        assert code == 0
        doc = json.load(open(sol))
        assert doc["status"] == "converged"
        assert doc["x"][0] == pytest.approx(2.0, abs=1e-5)
        records = read_trace(trace)
        assert records
        assert records[-1].mu < 1e-6

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "hessian": {"kind": "diagonal"},
                                    "p": [0.0]}))
        assert main(["solve-qp", str(path)]) == 1
        assert "'d'" in capsys.readouterr().err

    def test_inverted_bounds(self, tmp_path, capsys):
        doc = box_qp_doc()
        doc["lx"], doc["ux"] = [1.0], [0.0]
        path = tmp_path / "inv.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-qp", str(path)]) == 1
        assert "inverted bound" in capsys.readouterr().err

    @pytest.mark.parametrize("member, value, message", [
        ("lx", math.inf, "empty bound: var_bounds[0]"),
        ("ux", -math.inf, "empty bound: var_bounds[0]"),
        ("ux", math.nan, "non-finite data (NaN) in var_bounds.upper"),
    ])
    def test_bad_bound_is_input_error(self, member, value, message, tmp_path, capsys):
        doc = box_qp_doc()
        doc[member] = [value]
        path = tmp_path / "bound.json"
        path.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
        assert main(["solve-qp", str(path)]) == 1
        assert f"invalid problem: {message}" in capsys.readouterr().err

    def test_file_not_found(self, capsys):
        assert main(["solve-qp", "/no/such/file.json"]) == 1

    @pytest.mark.parametrize("flag", ["--trace", "--solution"])
    def test_unwritable_output_is_input_error_before_the_solve(self, flag, qp_path,
                                                                tmp_path, capsys):
        out = str(tmp_path / "missing" / "out")
        assert main(["solve-qp", qp_path, flag, out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {flag} file '{out}'")
        assert "status=" not in captured.out

    def test_invalid_problem_leaves_no_new_output_file(self, tmp_path, capsys):
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps({"n": 1, "hessian": {"kind": "diagonal", "d": [1]},
                                    "p": [0]}))
        sol, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        trace.write_text("kept\n")
        assert main(["solve-qp", str(path), "--solution", str(sol),
                     "--trace", str(trace)]) == 1
        assert "invalid problem: no finite bounds" in capsys.readouterr().err
        assert not sol.exists()
        assert trace.read_text() == "kept\n"

    def test_unwritable_trace_removes_the_probed_solution(self, qp_path, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        assert main(["solve-qp", qp_path, "--solution", str(sol),
                     "--trace", str(tmp_path / "missing" / "trace.csv")]) == 1
        assert "cannot write --trace file" in capsys.readouterr().err
        assert not sol.exists()

    def test_interrupted_solve_leaves_no_new_output_file(self, qp_path, tmp_path,
                                                          monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("qpipm.cli.solve", interrupt)
        sol, trace = tmp_path / "sol.json", tmp_path / "trace.csv"
        with pytest.raises(KeyboardInterrupt):
            main(["solve-qp", qp_path, "--solution", str(sol), "--trace", str(trace)])
        assert not sol.exists() and not trace.exists()

    def test_verbose_prints_iterations(self, qp_path, capsys):
        assert main(["solve-qp", qp_path, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "iter " in out and "mu " in out

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(p=[math.inf]),
        lambda d: d.update(hessian={"kind": "diagonal", "d": [math.inf]}),
        lambda d: d.update(A={"rows": [0], "cols": [0], "vals": [math.inf]},
                           l=[0.0], u=[1.0]),
        lambda d: d.update(C={"rows": [0], "cols": [0], "vals": [1.0]}, b=[math.inf]),
    ], ids=["p", "hessian.d", "A.vals", "b"])
    def test_infinite_data_is_input_error(self, edit, tmp_path, capsys):
        doc = box_qp_doc()
        edit(doc)
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))  # json writes inf as Infinity
        assert main(["solve-qp", str(path)]) == 1
        assert "invalid problem: non-finite data (inf)" in capsys.readouterr().err

    def test_iteration_limit_exit_code(self, qp_path):
        assert main(["solve-qp", qp_path, "--max-iter", "1"]) == 2

    def test_linear_solver_failure_exit_code(self, tmp_path):
        # H = -10 < 0: PCG breaks down on its first step
        doc = {"n": 1, "p": [0.5], "lx": [-1.0], "ux": [1.0],
               "hessian": {"kind": "diagonal", "d": [-10.0]}}
        path = tmp_path / "nonconvex.json"
        path.write_text(json.dumps(doc))
        code = main(["solve-qp", str(path), "--max-iter", "3", "--cg-maxit", "50"])
        assert code == 3

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # infeasible: x >= 1 as a row of A, x <= 0; the iterates diverge
        doc = {"n": 1, "p": [0.0], "hessian": {"kind": "diagonal", "d": [1.0]},
               "A": {"rows": [0], "cols": [0], "vals": [1.0]}, "l": [1.0], "u": [None],
               "lx": [None], "ux": [0.0]}
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(doc))
        assert main(["solve-qp", str(path)]) == 4
        assert "status=numerical_failure" in capsys.readouterr().out

    def test_overflowing_start_point_is_a_numerical_failure(self, tmp_path, capsys):
        """The start point x = 1e300 makes A x - s overflow: the measures are
        reported as inf and written as null, with no traceback."""
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(overflow_doc()))
        sol = str(tmp_path / "sol.json")
        assert main(["solve-qp", str(path), "--solution", sol]) == 4
        out = capsys.readouterr().out
        assert "status=numerical_failure" in out and "iterations=0" in out
        assert "primal_inf=inf dual_inf=inf" in out
        doc = json.load(open(sol))
        assert doc["status"] == "numerical_failure"
        assert doc["primal_inf"] is None and doc["dual_inf"] is None
        assert doc["compl_inf"] is None

    @pytest.mark.parametrize("edit", [
        # the box midpoint: lx + ux overflows
        lambda d: d.update(lx=[1e308], ux=[1.5e308]),
        # x = lx + 1, and the A row's gap x - l overflows
        lambda d: d.update(A={"rows": [0], "cols": [0], "vals": [1.0]},
                           l=[-1.7e308], u=[None], lx=[1.7e308], ux=[None]),
    ], ids=["midpoint", "gap"])
    def test_overflowing_start_point_warns_nothing(self, edit, tmp_path, capsys):
        doc = box_qp_doc()
        edit(doc)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve-qp", str(path)]) == 4
        assert [str(w.message) for w in caught] == []
        assert "status=numerical_failure" in capsys.readouterr().out

    @pytest.mark.parametrize("c, b, p, code, primal", [
        # row 2 of C is empty: 0 = 2
        ({"rows": [0], "cols": [0], "vals": [1]}, [1, 2], [1, 1], 2, 2.0),
        # x0 = 1 and x0 = 2: the least residual is 1/sqrt(2)
        ({"rows": [0, 1], "cols": [0, 0], "vals": [1, 1]}, [1, 2], [1, 1], 2, math.sqrt(0.5)),
        # x0 + x1 = 1, with the unconstrained minimum far outside it
        ({"rows": [0, 0], "cols": [0, 1], "vals": [1, 1]}, [1], [-1000, -1000], 0, None),
    ], ids=["zero-row", "contradicting-rows", "feasible"])
    def test_stopping_test_bounds_the_equality_residual(self, c, b, p, code, primal,
                                                         tmp_path, capsys):
        """The stopping test bounds C x - b itself. With the multiplier term
        mu * lam_e in r_e, both inconsistent problems ended converged with
        primal_inf near 1e-15, and the feasible one with |C x - b| = 1e-4."""
        doc = {"n": 2, "hessian": {"kind": "diagonal", "d": [1, 1]}, "p": p,
               "C": c, "b": b, "lx": [0, 0]}
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(doc))
        sol = str(tmp_path / "sol.json")
        assert main(["solve-qp", str(path), "--solution", sol]) == code
        written = json.load(open(sol))
        problem = load_qp_file(str(path))
        residual = problem.c @ np.array(written["x"]) - problem.b
        if primal is None:
            assert written["status"] == "converged"
            assert np.max(np.abs(residual)) <= IpmConfig().mu_tol * (1.0 + max(map(abs, b)))
        else:
            assert written["status"] == "iteration_limit"
            assert written["primal_inf"] == pytest.approx(primal, rel=1e-6)
            assert written["primal_inf"] == pytest.approx(np.linalg.norm(residual), rel=1e-6)

    def test_summary_reports_the_stopping_test_measures(self, tmp_path, capsys):
        """One equality row, one two-sided A row and a box: the summary, the
        --solution document and the trace's last row give the same measures,
        and they pass the stopping test's thresholds."""
        doc = {"n": 2, "hessian": {"kind": "diagonal", "d": [1.0, 2.0]},
               "p": [-1.0, 3.0], "A": {"rows": [0, 0], "cols": [0, 1], "vals": [1.0, -1.0]},
               "l": [-0.5], "u": [2.0], "C": {"rows": [0, 0], "cols": [0, 1],
                                              "vals": [1.0, 1.0]},
               "b": [1.0], "lx": [-4.0, -4.0], "ux": [4.0, None]}
        path = tmp_path / "qp.json"
        path.write_text(json.dumps(doc))
        problem = load_qp_file(str(path))
        cfg = IpmConfig()
        report = solve(problem, cfg)
        assert report.status is SolveStatus.CONVERGED
        last = report.trace[-1]
        summary = _report_summary(report, problem)
        measures = (last.primal_inf, last.dual_inf, last.compl_inf)
        assert (summary["primal_inf"], summary["dual_inf"], summary["compl_inf"]) == measures
        assert last.primal_inf <= cfg.mu_tol * (1.0 + 4.0)  # max(||g0||, ||b||) = 4
        assert last.dual_inf <= cfg.mu_tol * (1.0 + 3.0)  # ||p|| = 3
        assert last.compl_inf <= cfg.mu_tol

        sol, trace = str(tmp_path / "sol.json"), str(tmp_path / "trace.csv")
        assert main(["solve-qp", str(path), "--solution", sol, "--trace", trace]) == 0
        written = json.load(open(sol))
        row = read_trace(trace)[-1]
        for name in ("primal_inf", "dual_inf", "compl_inf"):
            assert written[name] == summary[name]
            assert getattr(row, name) == pytest.approx(summary[name], rel=1e-9)


def overflow_doc():
    return {"n": 1, "hessian": {"kind": "diagonal", "d": [1.0]}, "p": [0.0],
            "A": {"rows": [0], "cols": [0], "vals": [1e300]}, "l": [0.0], "u": [None],
            "lx": [1e300], "ux": [None]}


class TestSolveSvmCommand:
    def test_two_point_file(self, tmp_path, capsys):
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "10",
                     "--solution", sol])
        assert code == 0
        doc = json.load(open(sol))
        alpha = np.array(doc["alpha"])
        assert abs(alpha[0] - alpha[1]) <= 1e-6  # alpha'y = 0 with y = (1, -1)
        assert "bias" in doc and "support_indices" in doc
        assert "training accuracy" in capsys.readouterr().out

    def test_hard_margin_reports_a_bias(self, tmp_path, capsys):
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "inf",
                     "--solution", sol])
        assert code == 0
        doc = json.load(open(sol))
        assert math.isfinite(doc["bias"]) and doc["support_indices"] == [0, 1]
        captured = capsys.readouterr()
        assert "(2 support vectors)" in captured.out
        assert "warning" not in captured.err

    def test_loose_c_reports_the_support_vectors(self, tmp_path, capsys):
        """Every alpha ends far below c = 1e6: the support threshold follows
        the largest alpha, as with c = inf."""
        data = tmp_path / "four.svm"
        data.write_text("+1 1:1\n-1 2:1\n+1 1:0.9 2:0.1\n-1 1:0.1 2:0.8\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "1e6",
                     "--solution", sol])
        assert code == 0
        doc = json.load(open(sol))
        assert math.isfinite(doc["bias"]) and doc["support_indices"] == [2, 3]
        captured = capsys.readouterr()
        assert "(2 support vectors)" in captured.out
        assert "warning" not in captured.err

    def test_degenerate_model_is_a_warning(self, tmp_path, capsys, monkeypatch):
        def degenerate(*args):
            raise svm.DegenerateModelError("no support vectors (all alpha at zero)")

        monkeypatch.setattr(svm, "extract_model", degenerate)
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "10",
                     "--solution", sol])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: no support vectors (all alpha at zero)\n"
        assert captured.out.startswith("status=converged ")
        doc = json.load(open(sol))
        assert doc["status"] == "converged" and len(doc["alpha"]) == 2
        assert not {"bias", "support_indices", "training_accuracy"} & set(doc)

    def test_failed_solve_reports_no_model(self, tmp_path, capsys):
        """The start point alpha = c/2 = 5e299 overflows the residuals."""
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n+1 2:1\n-1 3:1\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "1e300",
                     "--solution", sol])
        assert code == 4
        doc = json.load(open(sol))
        assert doc["status"] == "numerical_failure" and len(doc["alpha"]) == 3
        assert not {"bias", "support_indices", "training_accuracy"} & set(doc)
        assert "training accuracy" not in capsys.readouterr().out

    def test_iteration_limit_reports_a_model(self, tmp_path, capsys):
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        sol = str(tmp_path / "model.json")
        code = main(["solve-svm", str(data), "--sigma", "1", "--c", "10",
                     "--max-iter", "1", "--solution", sol])
        assert code == 2
        assert {"bias", "support_indices", "training_accuracy"} <= set(json.load(open(sol)))
        assert "training accuracy" in capsys.readouterr().out

    def test_unwritable_output_is_input_error_before_the_solve(self, tmp_path, capsys,
                                                                monkeypatch):
        """... and before the n-by-n kernel is built."""
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        out = str(tmp_path / "missing" / "trace.csv")
        monkeypatch.setattr(svm, "build_svm_dual",
                            lambda *args: pytest.fail("the dual was built"))
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1",
                     "--trace", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write --trace file '{out}'")
        assert captured.out == ""

    def test_rejected_dataset_leaves_no_new_output_file(self, tmp_path, capsys):
        data = tmp_path / "one_class.svm"
        data.write_text("+1 1:1\n+1 2:1\n")
        sol, trace = tmp_path / "model.json", tmp_path / "trace.csv"
        sol.write_text("kept\n")
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1",
                     "--solution", str(sol), "--trace", str(trace)]) == 1
        assert "one sample of each class" in capsys.readouterr().err
        assert sol.read_text() == "kept\n"
        assert not trace.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        path = str(tmp_path / "missing.svm")
        assert main(["solve-svm", path, "--sigma", "1", "--c", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read '{path}': ")
        assert captured.out == ""

    def test_missing_sigma_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "tiny.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve-svm", str(data), "--c", "1"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        data = tmp_path / "bad.svm"
        data.write_text("+5 1:1\n")
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1"]) == 1

    def test_huge_feature_index_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "wide.svm"
        data.write_text("+1 1:1 1000000000000000:1\n-1 2:1\n")
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 2 samples x 1000000000000000 features exceed")

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1e200\n-1 1:1\n+1 2:1\n",
         "error: sample 1: squared feature norm"),
        ("+1 99999999999999999999999999:1\n-1 1:1\n",
         "error: line 1: feature index 99999999999999999999999999 out of range"),
    ], ids=["square-overflows", "index-beyond-int64"])
    def test_unrepresentable_sample_is_input_error(self, text, message, tmp_path, capsys):
        data = tmp_path / "big.svm"
        data.write_text(text)
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "training accuracy" not in captured.out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_parse_error(self, value, tmp_path, capsys):
        data = tmp_path / "nonfinite.svm"
        data.write_text(f"+1 1:1\n-1 1:{value}\n")
        assert main(["solve-svm", str(data), "--sigma", "1", "--c", "1"]) == 1
        assert "error: line 2: non-finite feature value" in capsys.readouterr().err


class TestCheckCommand:
    def test_valid(self, qp_path, capsys):
        assert main(["check", qp_path]) == 0
        assert "OK n=1 m_A=0 m_E=0" in capsys.readouterr().out

    def test_dimension_mismatch(self, tmp_path, capsys):
        doc = box_qp_doc()
        doc["p"] = [1.0, 2.0]
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        assert "error: member 'p' has wrong length" in capsys.readouterr().err

    def test_unreadable(self):
        assert main(["check", "/no/such/file"]) == 1

    def test_python_dash_m_exits_with_the_command_status(self, qp_path, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def run(path):
            return subprocess.run([sys.executable, "-m", "qpipm", "check", str(path)],
                                  capture_output=True, text=True, env=env)

        valid = run(qp_path)
        assert valid.returncode == 0 and "OK n=1 m_A=0 m_E=0" in valid.stdout, valid.stderr
        missing = run(tmp_path / "missing.json")
        assert missing.returncode == 1
        assert missing.stderr.startswith("error: cannot read ")


def _short_h0_diag(path):
    doc = box_qp_doc()
    doc.update(n=2, p=[0.0, 0.0], lx=[0.0, 0.0], ux=[1.0, 1.0],
               hessian={"kind": "bfgs", "h0_diag": [1.0], "u": [[0.5], [0.5]], "w": [1.0]})
    path.write_text(json.dumps(doc))
    return "member 'hessian.h0_diag' has wrong length"


def _boolean_n(path):
    doc = box_qp_doc()
    doc["n"] = True
    path.write_text(json.dumps(doc))
    return "member 'n' must be a nonnegative integer"


def _undecodable(path):
    path.write_bytes(json.dumps(box_qp_doc()).encode()[:-1] + b', "\xff": 1}')
    return f"'{path}' is not UTF-8 text"


def _n_beyond_index(path):
    """Built n-sized default bounds: OverflowError."""
    doc = box_qp_doc()
    doc["n"] = 10**30
    path.write_text(json.dumps(doc))
    return "member 'p' has wrong length"


def _n_million(path):
    """Built n-sized defaults (2.4 s, 23 MB) before p's length was checked."""
    doc = box_qp_doc()
    doc["n"] = 10**6
    path.write_text(json.dumps(doc))
    return "member 'p' has wrong length"


@pytest.mark.parametrize("command", ["check", "solve-qp"])
@pytest.mark.parametrize("write", [_short_h0_diag, _boolean_n, _undecodable,
                                   _n_beyond_index, _n_million])
def test_bad_file_is_named_input_error(command, write, tmp_path, capsys):
    path = tmp_path / "bad.json"
    message = write(path)
    assert main([command, str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


_ONE_A_ROW = {"l": [0.0], "u": [1.0]}


@pytest.mark.parametrize("content, message", [
    ({"p": "x"}, "member 'p' must be an array"),
    ({"p": [None]}, "member 'p' contains null at position 0"),
    ({"p": ["x"]}, "member 'p' contains non-numeric entry at position 0"),
    ({"A": {"rows": [1], "cols": [0], "vals": [1.0]}, **_ONE_A_ROW},
     "member 'A.rows': coordinate index out of range at position 0"),
    ({"ux": [1.0, 2.0]}, "members 'lx' and 'ux' have different lengths"),
    ({"A": [1.0], **_ONE_A_ROW}, "member 'A' must be an object"),
    ({"A": {"rows": [0], "cols": [0]}, **_ONE_A_ROW}, "member 'A' is missing 'vals'"),
    ({"A": {"rows": [0], "cols": [0], "vals": [1.0, 2.0]}, **_ONE_A_ROW},
     "member 'A': rows/cols/vals lengths differ"),
    ({"hessian": {"d": [1.0]}}, "member 'hessian' must be an object with a 'kind'"),
    ({"hessian": {"kind": "diagonal", "d": [1.0, 2.0]}},
     "member 'hessian.d' has wrong length"),
    ({"hessian": {"kind": "bfgs", "h0_diag": [1.0], "u": [], "w": [1.0]}},
     "member 'hessian.u' must be an n-row array of arrays"),
    ("[1]", "document root must be an object"),
    ("{", "is not valid JSON"),
    ('{"n": 1, "hessian": {"kind": "diagonal", "d": [1]}, "p": [0], "p": [1]}',
     "duplicate member 'p'"),
    ('{"n": 1, "hessian": {"kind": "diagonal", "d": [1], "d": [2]}, "p": [0]}',
     "duplicate member 'd'"),
], ids=["not_array", "null", "non_numeric", "index_range", "bound_lengths",
        "coo_not_object", "coo_missing", "coo_lengths", "hessian_kind",
        "diagonal_length", "bfgs_rows", "root", "json", "duplicate",
        "duplicate_nested"])
def test_malformed_qp_file_is_named_input_error(content, message, tmp_path, capsys):
    """content: members replacing those of ``box_qp_doc``, or the file's text."""
    path = tmp_path / "bad.json"
    path.write_text(content if isinstance(content, str)
                    else json.dumps({**box_qp_doc(), **content}))
    assert main(["check", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_short_p_is_rejected_before_n_sized_work():
    doc = box_qp_doc()
    doc["n"] = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(QpFileError, match="member 'p' has wrong length"):
            parse_qp_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("command", ["check", "solve-qp"])
@pytest.mark.parametrize("member, report", [("p", "p"), ("d", "hessian")])
@pytest.mark.parametrize("value", [10**400, -10**400], ids=["positive", "negative"])
def test_integer_beyond_floats_is_infinite(command, member, report, value, tmp_path,
                                           capsys):
    """json reads 1e400 as inf; an integer of 401 digits raised OverflowError."""
    doc = box_qp_doc()
    (doc if member == "p" else doc["hessian"])[member] = [value]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert f"non-finite data (inf) in {report}" in captured.out + captured.err


def test_integer_beyond_floats_is_an_unbounded_bound():
    """Infinite on its own side, as for 1e400."""
    doc = box_qp_doc()
    doc["lx"], doc["ux"] = [-10**400], [10**400]
    doc["l"], doc["u"], doc["A"] = [-1.0], [1.0], {"rows": [0], "cols": [0], "vals": [1.0]}
    problem = parse_qp_document(doc)
    assert problem.var_bounds.lower[0] == -np.inf and problem.var_bounds.upper[0] == np.inf
    assert validate_problem(problem) == []


@pytest.mark.parametrize("member", ["h0_diag", "u", "w"])
def test_overflowing_bfgs_member_is_named(member, tmp_path, capsys):
    """json reads 1e400 as inf; the quasi-Newton Hessian names the member."""
    hessian = {"kind": "bfgs", "h0_diag": [1.0], "u": [[0.5]], "w": [1.0]}
    hessian[member] = [["HUGE"]] if member == "u" else ["HUGE"]
    path = tmp_path / "bfgs.json"
    path.write_text(json.dumps({**box_qp_doc(), "hessian": hessian}).replace('"HUGE"', "1e400"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"non-finite data (inf) in hessian.{member}\n" in out
    assert "1 violation(s)" in out


def test_svm_dual_has_no_file_representation():
    data = svm.parse_libsvm("+1 1:1\n-1 2:1\n")
    problem = svm.build_svm_dual(data, svm.SvmConfig(sigma=1.0, c=1.0))
    with pytest.raises(ValueError, match="^dense Hessians have no file representation$"):
        qp_document(problem)


@pytest.mark.parametrize("command", ["check", "solve-qp"])
def test_asymmetric_coo_hessian_is_input_error(command, tmp_path, capsys):
    """Both triangles of H = [[2, 1], [0, 2]] are stored as given; solving
    with it converged to x = (-0.75, 0.5), which minimizes no symmetric H."""
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "n": 2, "hessian": {"kind": "coo", "rows": [0, 0, 1], "cols": [0, 1, 1],
                            "vals": [2, 1, 2]},
        "p": [1, -1], "lx": [-5, -5], "ux": [5, 5]}))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "hessian is not symmetric" in captured.out + captured.err


class TestFlagDefaults:
    def test_defaults_match_reference_values(self):
        parser = build_parser()
        args = parser.parse_args(["solve-qp", "x.json"])
        assert args.mu_tol == 1e-6
        assert args.cg_tol == 1e-7
        assert args.cg_maxit == 5000
        assert args.max_iter == 200

    def test_help_text_shows_defaults(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve-qp", "--help"])
        out = capsys.readouterr().out
        for flag, default in (("--mu-tol", "1e-06"), ("--cg-tol", "1e-07"),
                              ("--cg-maxit", "5000")):
            assert flag in out
            assert default in out


@pytest.mark.parametrize("flags", [["--mu-init", "1"], ["--cg-tol-absolute"],
                                   ["--gamma", "0.99"]],
                         ids=["mu-init", "cg-tol-absolute", "gamma"])
def test_removed_flag_is_unknown(flags, qp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-qp", qp_path, *flags])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def _solver_options() -> dict[str, dict[str, argparse.Action]]:
    """Option string -> action, per solver subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt: action for action in sub.choices[name]._actions
                   for opt in action.option_strings if opt not in ("-h", "--help")}
            for name in ("solve-qp", "solve-svm")}


def test_readme_names_every_solver_option():
    text = README.read_text(encoding="utf-8")
    for command, options in _solver_options().items():
        for opt in options:
            assert re.search(rf"(?<![\w-]){opt}(?![\w-])", text), (command, opt)


@pytest.mark.parametrize("config", [IpmConfig, PcgConfig], ids=lambda c: c.__name__)
def test_readme_names_every_config_field(config):
    text = README.read_text(encoding="utf-8")
    listed = re.search(rf"`{config.__name__}`\s+\(([^)]*)\)", text).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(config)]


def test_readme_common_flags_are_accepted_with_their_defaults():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Common flags:(.*?)\.\s", text, re.S).group(1)
    named = re.findall(r"`(--[\w-]+)`(?: \(([^)]+)\))?", sentence)
    assert named
    for options in _solver_options().values():
        for opt, default in named:
            assert opt in options, opt
            if default:
                assert float(default) == options[opt].default, opt


@pytest.mark.parametrize("command, flags", [
    ("solve-qp", ["--cg-maxit", "0"]),
    ("solve-qp", ["--cg-tol", "0"]),
    ("solve-qp", ["--mu-tol", "-1"]),
    ("solve-qp", ["--mu-tol", "inf"]),
    ("solve-qp", ["--cg-tol", "nan"]),
    ("solve-qp", ["--cg-tol", "1"]),
    ("solve-qp", ["--max-iter", "-3"]),
    ("solve-svm", ["--sigma", "0", "--c", "1"]),
    ("solve-svm", ["--sigma", "nan", "--c", "1"]),
    ("solve-svm", ["--sigma", "1", "--c", "-1"]),
], ids=["cg-maxit", "cg-tol", "mu-tol", "mu-tol-inf", "cg-tol-nan", "cg-tol-one",
        "max-iter", "sigma", "sigma-nan", "c"])
def test_out_of_range_flag_is_input_error(command, flags, qp_path, tmp_path, capsys):
    path = qp_path
    if command == "solve-svm":
        path = tmp_path / "tiny.svm"
        path.write_text("+1 1:1\n-1 2:1\n")
    assert main([command, str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve-qp", "solve-svm"])
def test_same_solution_and_trace_file_is_input_error(command, qp_path, tmp_path, capsys):
    path, flags = qp_path, []
    if command == "solve-svm":
        path, flags = tmp_path / "tiny.svm", ["--sigma", "1", "--c", "1"]
        path.write_text("+1 1:1\n-1 2:1\n")
    out = tmp_path / "out.json"
    assert main([command, str(path), *flags, "--solution", str(out),
                 "--trace", str(tmp_path / "." / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --solution and --trace name the same file\n"
    assert "status=" not in captured.out
    assert not out.exists()


class TestLayoutBuiltOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = BoundIndexMap.from_problem

        def counting(problem):
            calls.append(problem)
            return original(problem)

        monkeypatch.setattr(BoundIndexMap, "from_problem", counting)
        return calls

    def test_setup_builds_no_layout(self, qp_path, builds):
        assert validate_problem(load_qp_file(qp_path)) == []
        box_qp(DiagonalHessian([1.0, 2.0]), [0.0, 1.0], [-1.0, -1.0], [1.0, 1.0])
        assert builds == []

    def test_solve_and_summary_share_one_layout(self, qp_path, builds):
        problem = load_qp_file(qp_path)
        report = solve(problem)
        _report_summary(report, problem)
        assert builds == [problem]
