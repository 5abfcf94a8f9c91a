import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import dense_hessian, sparse_from_dense, sparse_to_dense
from qpipm.cli import (TRACE_HEADER, QpFileError, _report_summary,
                       build_parser, load_qp_file, main, parse_qp_document,
                       qp_document, read_trace, write_trace)
from qpipm.ipm import SolveStatus, TraceRecord, solve
from qpipm.model import (BoundIndexMap, DiagonalHessian, QuasiNewtonHessian,
                         SparseHessian, box_qp, validate_problem)


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
        assert "violation" in capsys.readouterr().out

    def test_unreadable(self):
        assert main(["check", "/no/such/file"]) == 1


def _short_h0_diag(path):
    doc = box_qp_doc()
    doc.update(n=2, p=[0.0, 0.0], lx=[0.0, 0.0], ux=[1.0, 1.0],
               hessian={"kind": "bfgs", "h0_diag": [1.0], "u": [[0.5], [0.5]], "w": [1.0]})
    path.write_text(json.dumps(doc))
    return "member 'hessian.h0_diag' has wrong length"


def _undecodable(path):
    path.write_bytes(json.dumps(box_qp_doc()).encode()[:-1] + b', "\xff": 1}')
    return f"'{path}' is not UTF-8 text"


@pytest.mark.parametrize("command", ["check", "solve-qp"])
@pytest.mark.parametrize("write", [_short_h0_diag, _undecodable])
def test_bad_file_is_named_input_error(command, write, tmp_path, capsys):
    path = tmp_path / "bad.json"
    message = write(path)
    assert main([command, str(path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err


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
        assert args.gamma == 0.99
        assert args.mu_tol == 1e-6
        assert args.cg_tol == 1e-7
        assert args.cg_maxit == 5000
        assert args.mu_init == 1.0
        assert args.max_iter == 200

    def test_help_text_shows_defaults(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["solve-qp", "--help"])
        out = capsys.readouterr().out
        for flag, default in (("--gamma", "0.99"), ("--mu-tol", "1e-06"),
                              ("--cg-tol", "1e-07"), ("--cg-maxit", "5000")):
            assert flag in out
            assert default in out


@pytest.mark.parametrize("command, flags", [
    ("solve-qp", ["--gamma", "1.5"]),
    ("solve-qp", ["--cg-maxit", "0"]),
    ("solve-qp", ["--cg-tol", "0"]),
    ("solve-qp", ["--mu-tol", "-1"]),
    ("solve-qp", ["--mu-init", "0"]),
    ("solve-qp", ["--mu-init", "nan"]),
    ("solve-qp", ["--cg-tol", "nan"]),
    ("solve-qp", ["--max-iter", "-3"]),
    ("solve-svm", ["--sigma", "0", "--c", "1"]),
    ("solve-svm", ["--sigma", "nan", "--c", "1"]),
    ("solve-svm", ["--sigma", "1", "--c", "-1"]),
], ids=["gamma", "cg-maxit", "cg-tol", "mu-tol", "mu-init", "mu-init-nan",
        "cg-tol-nan", "max-iter", "sigma", "sigma-nan", "c"])
def test_out_of_range_flag_is_input_error(command, flags, qp_path, tmp_path, capsys):
    path = qp_path
    if command == "solve-svm":
        path = tmp_path / "tiny.svm"
        path.write_text("+1 1:1\n-1 2:1\n")
    assert main([command, str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
