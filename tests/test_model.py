import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_hessian, hessian_to_dense, random_hessian,
                     random_sparse)
from qpipm.model import (Bounds, DenseHessian, DiagonalHessian,
                         DimensionError, QpProblem,
                         QuasiNewtonHessian, SparseHessian, SparseMatrix,
                         box_qp, hessian_apply, hessian_diagonal,
                         validate_problem)


class TestSparseMatrix:
    def test_coo_round_trip(self, rng):
        for _ in range(10):
            dense = np.where(rng.random((6, 4)) < 0.4, rng.standard_normal((6, 4)), 0.0)
            m = SparseMatrix.from_dense(dense)
            np.testing.assert_array_equal(m.to_dense(), dense)

    def test_duplicate_coo_entries_summed(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        np.testing.assert_array_equal(m.to_dense(), [[0.0, 5.0], [1.0, 0.0]])

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [5], [1.0])  # column out of range
        with pytest.raises(DimensionError):
            SparseMatrix(2, 2, [0, 1], [0], [1.0])  # offsets too short

    @pytest.mark.parametrize("offsets, cols, row", [
        ([0, 1, 3], [0, 2, 1], 1),     # unsorted row
        ([0, 2, 3], [1, 1, 0], 0),     # duplicate column within a row
        ([0, 0, 2, 4], [1, 2, 2, 2], 2),  # 2, 2 across rows 1/2 is fine
    ])
    def test_columns_not_increasing_within_row_rejected(self, offsets, cols, row):
        with pytest.raises(ValueError, match=f"strictly increasing in row {row}$"):
            SparseMatrix(len(offsets) - 1, 3, offsets, cols, [1.0] * len(cols))

    def test_column_decrease_across_rows_accepted(self):
        m = SparseMatrix(4, 3, [0, 2, 2, 3, 4], [1, 2, 0, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            m.to_dense(), [[0, 1, 2], [0, 0, 0], [3, 0, 0], [4, 0, 0]])

    def test_empty(self):
        m = SparseMatrix.empty(0, 3)
        assert m.nnz == 0
        assert m.to_dense().shape == (0, 3)


class TestHessianApply:
    def test_quasi_newton_example(self):
        h = QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [2.0])
        np.testing.assert_allclose(hessian_apply(h, [1.0, 1.0]), [3.0, 1.0])

    def test_diagonal_example(self):
        np.testing.assert_allclose(
            hessian_apply(DiagonalHessian([2.0, 3.0]), [1.0, 1.0]), [2.0, 3.0])

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
            hessian_apply(DiagonalHessian([1.0, 2.0]), [1.0])

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
        g = rng.standard_normal((30, 30))
        m = g + g.T
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "readonly":
            m.flags.writeable = False
        h = DenseHessian(m)
        for _ in range(5):
            v = rng.standard_normal(30)
            expected = m @ v
            np.testing.assert_allclose(hessian_apply(h, v), expected,
                                       rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    def test_dense_product_does_not_copy_the_matrix(self, rng):
        g = rng.standard_normal((1000, 1000))
        h = DenseHessian(g + g.T)
        v = rng.standard_normal(1000)
        hessian_apply(h, v)  # warm up any one-time allocations
        tracemalloc.start()
        try:
            hessian_apply(h, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the matrix itself is 8 MB


class TestHessianDiagonal:
    def test_quasi_newton_formula(self):
        h = QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [2.0])
        np.testing.assert_allclose(hessian_diagonal(h), [3.0, 1.0])

    def test_diagonal_identity(self):
        np.testing.assert_array_equal(
            hessian_diagonal(DiagonalHessian([4.0, 7.0])), [4.0, 7.0])

    def test_sparse_matches_dense_oracle(self, rng):
        h = random_hessian(rng, 10, "sparse")
        np.testing.assert_allclose(hessian_diagonal(h), np.diag(dense_hessian(h)))

    def test_diagonal_equals_unit_vector_probes(self, rng):
        for kind in ("diagonal", "sparse", "bfgs"):
            h = random_hessian(rng, 7, kind)
            diag = hessian_diagonal(h)
            for j in range(7):
                e = np.zeros(7)
                e[j] = 1.0
                assert diag[j] == pytest.approx(e @ hessian_apply(h, e), rel=1e-14, abs=1e-14)

    def test_to_dense_matches_oracle(self, rng):
        for kind in ("diagonal", "sparse", "bfgs"):
            h = random_hessian(rng, 6, kind)
            np.testing.assert_allclose(hessian_to_dense(h), dense_hessian(h), rtol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.data())
def test_diagonal_hessian_apply_property(d, data):
    v = np.array(data.draw(st.lists(st.floats(-1e3, 1e3),
                                    min_size=len(d), max_size=len(d))))
    h = DiagonalHessian(d)
    np.testing.assert_array_equal(hessian_apply(h, v), np.array(d) * v)


class TestValidateProblem:
    def well_formed(self):
        return box_qp(DiagonalHessian([1.0, 2.0]), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])

    def test_well_formed_box_qp(self):
        assert validate_problem(self.well_formed()) == []

    def test_inverted_bound(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [1.0], [0.0])
        report = validate_problem(p)
        assert len(report) == 1
        assert "inverted bound" in report[0]

    def test_dimension_mismatch(self):
        good = self.well_formed()
        p = QpProblem(n=2, hessian=good.hessian, p=[1.0, 2.0, 3.0], a=good.a,
                      lin_bounds=good.lin_bounds, c=good.c, b=good.b,
                      var_bounds=good.var_bounds)
        report = validate_problem(p)
        assert len(report) == 1
        assert "dimension mismatch" in report[0]

    def test_nan_rejected(self):
        p = box_qp(DiagonalHessian([1.0]), [np.nan], [0.0], [1.0])
        assert any("NaN" in v for v in validate_problem(p))

    def test_fully_unconstrained_rejected(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [-np.inf], [np.inf])
        assert any("well-posed" in v for v in validate_problem(p))

    def test_asymmetric_dense_hessian_rejected(self):
        p = box_qp(DenseHessian([[2.0, 1.0], [0.0, 2.0]]), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert validate_problem(p) == ["hessian is not symmetric"]

    def test_symmetric_dense_hessian_accepted(self):
        p = box_qp(DenseHessian([[2.0, 0.3], [0.3, 2.0]]), [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        assert validate_problem(p) == []

    def test_psd_spot_check_random_hessians(self, rng):
        for kind in ("diagonal", "sparse", "bfgs"):
            h = random_hessian(rng, 8, kind)
            for _ in range(50):
                v = rng.standard_normal(8)
                assert v @ hessian_apply(h, v) >= -1e-10 * (v @ v)
