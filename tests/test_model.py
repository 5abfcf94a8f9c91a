from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_hessian, random_hessian, sparse_from_dense,
                     sparse_to_dense)
from qpipm.cli import parse_qp_document, qp_document
from qpipm.ipm import SolveStatus, solve
from qpipm.model import (Bounds, DimensionError, QpProblem, QuasiNewtonHessian,
                         SparseHessian, SparseMatrix, box_qp, hessian_apply,
                         hessian_diagonal, validate_problem)


class TestSparseMatrix:
    def test_coo_round_trip(self, rng):
        for _ in range(10):
            dense = np.where(rng.random((6, 4)) < 0.4, rng.standard_normal((6, 4)), 0.0)
            m = sparse_from_dense(dense)
            np.testing.assert_array_equal(sparse_to_dense(m), dense)

    def test_duplicate_coo_entries_summed(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        np.testing.assert_array_equal(sparse_to_dense(m), [[0.0, 5.0], [1.0, 0.0]])

    @staticmethod
    def _corrupted(**arrays):
        """A valid 2x2 CSR matrix whose index arrays are then overwritten,
        past the checks of scipy's constructor."""
        m = sp.csr_matrix(np.eye(2))
        for name, value in arrays.items():
            setattr(m, name, np.asarray(value, dtype=m.indices.dtype))
        return m

    def test_invariant_violations_rejected(self):
        invalid = [
            # column out of range: only check_format(full_check=True) sees it
            lambda: sp.csr_matrix(([1.0], [5], [0, 1]), shape=(1, 2)),
            lambda: self._corrupted(indptr=[0, 1]),  # offsets too short
            lambda: self._corrupted(indptr=[0, 2, 1]),  # decreasing offsets
            lambda: self._corrupted(indices=[0, -1]),  # negative column
        ]
        for make in invalid:
            with pytest.raises(ValueError):
                QpProblem(n=2, hessian=SparseHessian(sp.diags([1.0, 1.0])), p=[0.0, 0.0],
                          a=make(), lin_bounds=Bounds.free(make().shape[0]),
                          c=sp.csr_matrix((0, 2)), b=[], var_bounds=Bounds.free(2))
            with pytest.raises(ValueError):
                SparseHessian(make())

    @pytest.mark.parametrize("offsets, cols", [
        ([0, 1, 3], [0, 2, 1]),     # unsorted row
        ([0, 2, 3], [1, 1, 0]),     # duplicate column within a row
        ([0, 0, 2, 4], [1, 2, 2, 2]),  # 2, 2 across rows 1/2 and within row 2
    ], ids=["unsorted_row", "duplicate_in_row", "duplicate_in_last_row"])
    def test_non_canonical_input_made_canonical(self, offsets, cols):
        vals = np.arange(1.0, len(cols) + 1)
        given = sp.csr_matrix((vals.copy(), cols, offsets), shape=(len(offsets) - 1, 3))
        before = (given.data.copy(), given.indices.copy(), given.indptr.copy())
        summed = np.zeros(given.shape)
        for i in range(given.shape[0]):
            for k in range(offsets[i], offsets[i + 1]):
                summed[i, cols[k]] += vals[k]
        problem = QpProblem(n=3, hessian=SparseHessian(sp.diags(np.ones(3))), p=np.zeros(3),
                            a=given, lin_bounds=Bounds.free(given.shape[0]),
                            c=given, b=np.zeros(given.shape[0]),
                            var_bounds=Bounds.free(3))
        for m in (problem.a, problem.c):
            assert type(m) is sp.csr_matrix and m.dtype == np.float64
            row_of = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
            same_row = row_of[1:] == row_of[:-1]
            assert np.all(np.diff(m.indices)[same_row] > 0)
            np.testing.assert_array_equal(sparse_to_dense(m), summed)
        for kept, now in zip(before, (given.data, given.indices, given.indptr)):
            np.testing.assert_array_equal(now, kept)

    def test_column_decrease_across_rows_accepted(self):
        m = sp.csr_matrix(([1.0, 2.0, 3.0, 4.0], [1, 2, 0, 0], [0, 2, 2, 3, 4]), shape=(4, 3))
        problem = QpProblem(n=3, hessian=SparseHessian(sp.diags(np.ones(3))), p=np.zeros(3),
                            a=m, lin_bounds=Bounds.free(4), c=sp.csr_matrix((0, 3)),
                            b=[], var_bounds=Bounds.free(3))
        np.testing.assert_array_equal(
            sparse_to_dense(problem.a), [[0, 1, 2], [0, 0, 0], [3, 0, 0], [4, 0, 0]])

    def test_empty(self):
        problem = box_qp(SparseHessian(sp.diags(np.ones(3))), np.zeros(3),
                         -np.ones(3), np.ones(3))
        assert problem.a.nnz == problem.c.nnz == 0
        assert sparse_to_dense(problem.a).shape == (0, 3)


class TestHessianApply:
    def test_quasi_newton_example(self):
        h = QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [2.0])
        np.testing.assert_allclose(hessian_apply(h, [1.0, 1.0]), [3.0, 1.0])

    def test_diagonal_example(self):
        np.testing.assert_allclose(
            hessian_apply(SparseHessian(sp.diags([2.0, 3.0])), [1.0, 1.0]), [2.0, 3.0])

    def test_quasi_newton_matches_dense_oracle(self, rng):
        h = QuasiNewtonHessian(rng.uniform(0.5, 2.0, 20),
                               rng.standard_normal((20, 4)),
                               rng.standard_normal(4))
        dense = dense_hessian(h)
        for _ in range(5):
            v = rng.standard_normal(20)
            np.testing.assert_allclose(hessian_apply(h, v), dense @ v, rtol=1e-12)

    def test_rank_zero_update_is_h0(self, rng):
        h = QuasiNewtonHessian([2.0, 5.0], np.zeros((2, 0)), np.zeros(0))
        np.testing.assert_allclose(hessian_apply(h, [1.0, 1.0]), [2.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            hessian_apply(SparseHessian(sp.diags([1.0, 2.0])), [1.0])

    def test_symmetry_all_variants(self, rng):
        for kind in ("diagonal", "sparse", "bfgs", "dense"):
            h = random_hessian(rng, 9, kind)
            for _ in range(20):
                u = rng.standard_normal(9)
                v = rng.standard_normal(9)
                uhv = u @ hessian_apply(h, v)
                vhu = v @ hessian_apply(h, u)
                assert abs(uhv - vhu) <= 1e-12 * (1.0 + abs(uhv))


    @pytest.mark.parametrize("layout", ["C", "F", "readonly"])
    def test_dense_matches_matmul(self, rng, layout):
        """A dense array in any layout gives a SparseHessian with its product."""
        g = rng.standard_normal((30, 30))
        m = g + g.T
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "readonly":
            m.flags.writeable = False
        h = SparseHessian(m)
        for _ in range(5):
            v = rng.standard_normal(30)
            expected = m @ v
            np.testing.assert_allclose(hessian_apply(h, v), expected,
                                       rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("build, message", [
    (lambda: QuasiNewtonHessian([1.0, 1.0], np.zeros((3, 1)), [1.0]),
     "update matrix must be n x k with k weights"),
    (lambda: QuasiNewtonHessian([1.0, 1.0], np.zeros((2, 2)), [1.0]),
     "update matrix must be n x k with k weights"),
    (lambda: QuasiNewtonHessian([1.0, 1.0], np.zeros(2), []),
     "update matrix must be n x k with k weights"),
    (lambda: Bounds([0.0, 0.0], [1.0]), "lower and upper must have equal length"),
], ids=["u_rows", "u_columns", "u_one_dimensional", "bounds_lengths"])
def test_inconsistent_shapes_are_dimension_errors(build, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        build()


class TestHessianDiagonal:
    def test_quasi_newton_formula(self):
        h = QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [2.0])
        np.testing.assert_allclose(hessian_diagonal(h), [3.0, 1.0])

    def test_diagonal_identity(self):
        np.testing.assert_array_equal(
            hessian_diagonal(SparseHessian(sp.diags([4.0, 7.0]))), [4.0, 7.0])

    def test_sparse_matches_dense_oracle(self, rng):
        h = random_hessian(rng, 10, "sparse")
        np.testing.assert_allclose(hessian_diagonal(h), np.diag(dense_hessian(h)))

    def test_sparse_low_rank_diagonal_is_built_once(self, rng):
        h = random_hessian(rng, 10, "sparse")
        first, second = h.low_rank()[0], h.low_rank()[0]
        assert first is second
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, h.m.diagonal())

    def test_diagonal_equals_unit_vector_probes(self, rng):
        for kind in ("diagonal", "sparse", "bfgs"):
            h = random_hessian(rng, 7, kind)
            diag = hessian_diagonal(h)
            for j in range(7):
                e = np.zeros(7)
                e[j] = 1.0
                assert diag[j] == pytest.approx(e @ hessian_apply(h, e), rel=1e-14, abs=1e-14)


class ScaledIdentity:
    """c I with only the members the solver may read from a Hessian."""

    def __init__(self, n, c):
        self.n, self.c = n, c

    def apply(self, v):
        return self.c * v

    def low_rank(self):
        return np.full(self.n, self.c), np.zeros((self.n, 0)), np.zeros(0)

    def validate(self):
        return []

    def to_json(self):
        return {"kind": "diagonal", "d": [self.c] * self.n}


def test_solver_reads_only_the_hessian_members():
    p = box_qp(ScaledIdentity(3, 2.0), [1.0, -4.0, 0.0], [-1.0] * 3, [1.0] * 3)
    assert validate_problem(p) == []
    report = solve(p)
    assert report.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(report.x, [-0.5, 1.0, 0.0], atol=1e-4)
    doc = qp_document(p)
    assert doc["hessian"] == {"kind": "diagonal", "d": [2.0, 2.0, 2.0]}
    np.testing.assert_array_equal(parse_qp_document(doc).hessian.m.diagonal(), [2.0, 2.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.data())
def test_diagonal_hessian_apply_property(d, data):
    v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                    min_size=len(d), max_size=len(d))))
    h = SparseHessian(sp.diags(d))
    np.testing.assert_array_equal(hessian_apply(h, v), np.array(d) * v)


class TestValidateProblem:
    def well_formed(self):
        return box_qp(SparseHessian(sp.diags([1.0, 2.0])), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])

    def test_well_formed_box_qp(self):
        assert validate_problem(self.well_formed()) == []

    def test_inverted_bound(self):
        p = box_qp(SparseHessian(sp.diags([1.0])), [0.0], [1.0], [0.0])
        report = validate_problem(p)
        assert len(report) == 1
        assert "inverted bound" in report[0]

    @pytest.mark.parametrize("fields, message", [
        ({"p": [1.0, 2.0, 3.0]}, "dimension mismatch: p has length 3, expected 2"),
        ({"hessian": SparseHessian(sp.diags([1.0, 2.0, 3.0]))},
         "dimension mismatch: hessian is 3-dimensional, expected 2"),
        ({"a": sp.csr_matrix((1, 3)), "lin_bounds": Bounds([0.0], [1.0])},
         "dimension mismatch: A has 3 columns, expected 2"),
        ({"a": sp.csr_matrix((1, 2)), "lin_bounds": Bounds.free(2)},
         "dimension mismatch: lin_bounds has length 2, expected 1"),
        ({"c": sp.csr_matrix((1, 3)), "b": [0.0]},
         "dimension mismatch: C has 3 columns, expected 2"),
        ({"c": sp.csr_matrix((1, 2)), "b": [0.0, 0.0]},
         "dimension mismatch: b has length 2, expected 1"),
        ({"var_bounds": Bounds([0.0], [1.0])},
         "dimension mismatch: var_bounds has length 1, expected 2"),
        # an equality row keeps the barrier subproblem well-posed
        ({"n": 0, "hessian": SparseHessian(sp.diags([])), "p": [], "a": sp.csr_matrix((0, 0)),
          "c": sp.csr_matrix((1, 0)), "b": [0.0], "var_bounds": Bounds.free(0)},
         "empty variable space (n must be >= 1)"),
    ], ids=["p", "hessian", "a_columns", "lin_bounds", "c_columns", "b",
            "var_bounds", "n"])
    def test_dimension_mismatch(self, fields, message):
        assert validate_problem(replace(self.well_formed(), **fields)) == [message]

    def test_nan_rejected(self):
        p = box_qp(SparseHessian(sp.diags([1.0])), [np.nan], [0.0], [1.0])
        assert any("NaN" in v for v in validate_problem(p))

    def test_fully_unconstrained_rejected(self):
        p = box_qp(SparseHessian(sp.diags([1.0])), [0.0], [-np.inf], [np.inf])
        assert any("well-posed" in v for v in validate_problem(p))

    def test_asymmetric_dense_hessian_rejected(self):
        p = box_qp(SparseHessian([[2.0, 1.0], [0.0, 2.0]]), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert validate_problem(p) == ["hessian is not symmetric"]

    def test_symmetric_dense_hessian_accepted(self):
        p = box_qp(SparseHessian([[2.0, 0.3], [0.3, 2.0]]), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert validate_problem(p) == []

    @pytest.mark.parametrize("m, expected", [
        ([[2.0, 1.0], [0.0, 2.0]], ["hessian is not symmetric"]),
        ([[2.0, 0.3], [0.3, 2.0]], []),
        ([[2.0, np.nan], [np.nan, 2.0]], ["non-finite data (NaN) in hessian"]),
        ([[2.0, 0.0], [0.0, np.inf]], ["non-finite data (inf) in hessian"]),
        ([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0]], ["hessian is not square: shape (2, 3)"]),
    ], ids=["non_symmetric", "symmetric", "nan", "inf", "non_square"])
    def test_dense_array_hessian_report(self, m, expected):
        """A dense array's violations, stated exactly: NaN before inf, and
        no symmetry test once the data is not finite or not square."""
        assert SparseHessian(np.array(m)).validate() == expected

    def test_sparse_hessian_shape_and_symmetry(self):
        def report(m):
            return SparseHessian(sp.csr_matrix(m)).validate()

        assert report([[2.0, 1.0], [0.0, 2.0]]) == ["hessian is not symmetric"]
        assert report([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0]]) == [
            "hessian is not square: shape (2, 3)"]
        assert report([[2.0, 0.3], [0.3 + 1e-12, 2.0]]) == []
        assert report(np.zeros((2, 2))) == []

    def test_psd_spot_check_random_hessians(self, rng):
        for kind in ("diagonal", "sparse", "bfgs"):
            h = random_hessian(rng, 8, kind)
            for _ in range(50):
                v = rng.standard_normal(8)
                assert v @ hessian_apply(h, v) >= -1e-10 * (v @ v)
