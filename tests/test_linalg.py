import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (SingularMatrixError, dense_solve, random_sparse,
                     recording_identity, sparse_from_dense, sparse_to_dense,
                     spmv, spmv_transpose)
from qpipm.linalg import PcgBreakdownError, PcgConfig, pcg
from qpipm.model import DimensionError


def identity_prec(v):
    return v


class TestSpmv:
    def test_identity(self):
        m = sparse_from_dense(np.eye(3))
        np.testing.assert_array_equal(spmv(m, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_zero_matrix(self):
        m = sp.csr_matrix((4, 3))
        np.testing.assert_array_equal(spmv(m, [1.0, 2.0, 3.0]), np.zeros(4))

    def test_against_dense_oracle(self, rng):
        m = random_sparse(rng, 8, 5)
        dense = sparse_to_dense(m)
        for _ in range(5):
            x = rng.standard_normal(5)
            np.testing.assert_allclose(spmv(m, x), dense @ x, rtol=1e-13)

    def test_dimension_mismatch(self):
        m = sp.csr_matrix((2, 3))
        with pytest.raises(DimensionError):
            spmv(m, [1.0, 2.0])


class TestSpmvTranspose:
    def test_identity(self):
        m = sparse_from_dense(np.eye(3))
        np.testing.assert_array_equal(spmv_transpose(m, [1.0, 2.0, 3.0]),
                                      [1.0, 2.0, 3.0])

    def test_transpose_definition(self, rng):
        m = random_sparse(rng, 6, 4)
        for i in range(6):
            ei = np.zeros(6)
            ei[i] = 1.0
            col = spmv_transpose(m, ei)
            for j in range(4):
                ej = np.zeros(4)
                ej[j] = 1.0
                assert col[j] == spmv(m, ej)[i]

    def test_against_dense_oracle(self, rng):
        m = random_sparse(rng, 8, 5)
        dense = sparse_to_dense(m)
        for _ in range(5):
            x = rng.standard_normal(8)
            np.testing.assert_allclose(spmv_transpose(m, x), dense.T @ x,
                                       rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        m = sp.csr_matrix((2, 3))
        with pytest.raises(DimensionError):
            spmv_transpose(m, [1.0, 2.0, 3.0])


class TestPcg:
    def test_identity_operator_one_iteration(self, rng):
        rhs = rng.standard_normal(6)
        res = pcg(lambda v: v, identity_prec, rhs, PcgConfig(tol=1e-10))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.solution, rhs, rtol=1e-12)

    def test_jacobi_on_diagonal_converges_in_one(self):
        d = np.array([1.0, 2.0, 5.0])
        rhs = np.array([1.0, -2.0, 3.0])
        res = pcg(lambda v: d * v, lambda v: v / d, rhs, PcgConfig(tol=1e-12))
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.solution, rhs / d, rtol=1e-12)

    def test_two_by_two_against_dense_solve(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        res = pcg(lambda v: a @ v, identity_prec, rhs, PcgConfig(tol=1e-12))
        assert res.converged
        np.testing.assert_allclose(res.solution, [1.0 / 11.0, 7.0 / 11.0], rtol=1e-10)
        np.testing.assert_allclose(res.solution, dense_solve(a, rhs), rtol=1e-10)

    def test_agrees_with_dense_solve_random_spd(self, rng):
        for n in (5, 20, 50):
            g = rng.standard_normal((n, n))
            a = g @ g.T + n * np.eye(n)
            rhs = rng.standard_normal(n)
            res = pcg(lambda v: a @ v, lambda v: v / np.diag(a), rhs,
                      PcgConfig(tol=1e-12))
            assert res.converged
            np.testing.assert_allclose(res.solution, dense_solve(a, rhs), rtol=1e-8)

    def test_finite_termination(self, rng):
        for n in (10, 30, 50):
            g = rng.standard_normal((n, n))
            a = g @ g.T + n * np.eye(n)
            rhs = rng.standard_normal(n)
            res = pcg(lambda v: a @ v, identity_prec, rhs,
                      PcgConfig(tol=1e-10, max_iters=n))
            assert res.converged
            assert res.iterations <= n

    def test_identity_prec_matches_plain_cg_trajectory(self, rng):
        n = 12
        g = rng.standard_normal((n, n))
        a = g @ g.T + n * np.eye(n)
        rhs = rng.standard_normal(n)

        # textbook unpreconditioned CG, its residual recorded after each step
        plain = []
        r = rhs.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(8):
            ap = a @ p
            alpha = rr / (p @ ap)
            r = r - alpha * ap
            plain.append(r.copy())
            rr_next = r @ r
            p = r + (rr_next / rr) * p
            rr = rr_next

        # the 9th step's preconditioner application records r_8
        recorded = []
        pcg(lambda v: a @ v, recording_identity(recorded), rhs,
            PcgConfig(tol=1e-30, max_iters=9))
        assert len(recorded) == 9
        np.testing.assert_array_equal(recorded[0], rhs)
        scale = np.linalg.norm(rhs)
        for ref, got in zip(plain, recorded[1:]):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12 * scale)

    def test_breakdown_on_indefinite_operator(self, rng):
        a = np.diag([1.0, -1.0])
        rhs = np.array([0.0, 1.0])
        with pytest.raises(PcgBreakdownError):
            pcg(lambda v: a @ v, identity_prec, rhs, PcgConfig(tol=1e-10))

    def test_converged_implies_threshold(self, rng):
        g = rng.standard_normal((8, 8))
        a = g @ g.T + 8 * np.eye(8)
        rhs = rng.standard_normal(8)
        cfg = PcgConfig(tol=1e-9)
        res = pcg(lambda v: a @ v, identity_prec, rhs, cfg)
        assert res.converged
        assert res.final_residual_norm <= cfg.tol * np.linalg.norm(rhs)

    def test_max_iters_returns_best_iterate(self, rng):
        g = rng.standard_normal((30, 30))
        a = g @ g.T + 0.01 * np.eye(30)
        rhs = rng.standard_normal(30)
        res = pcg(lambda v: a @ v, identity_prec, rhs,
                  PcgConfig(tol=1e-14, max_iters=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.final_residual_norm == pytest.approx(
            np.linalg.norm(rhs - a @ res.solution))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PcgConfig(tol=0.0)
        with pytest.raises(ValueError):
            PcgConfig(tol=1.0)
        with pytest.raises(ValueError):
            PcgConfig(max_iters=0)


class TestDenseSolve:
    def test_identity(self):
        np.testing.assert_array_equal(dense_solve(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(
            dense_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrixError):
            dense_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_residual_on_random_instances(self, rng):
        for n in (3, 10, 40):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            rhs = rng.standard_normal(n)
            x = dense_solve(a, rhs)
            assert np.abs(a @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dense_solve(a, [2.0, 3.0]), [3.0, 2.0])
