import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (DenseParts, assemble_dense, assemble_dense_augmented,
                     dense_hessian, dense_preconditioner, dense_solve, make_state,
                     random_interior_state, random_problem, sparse_from_dense)
from qpipm.ipm import IpmConfig, SolveStatus, initialize, solve
from qpipm.kkt import (apply_doubly_augmented, assemble_rhs, build_operator,
                       compute_residuals, jacobi_diagonal, preconditioner,
                       recover_directions)
from qpipm.model import (BoundIndexMap, Bounds, DiagonalHessian, QpProblem,
                         QuasiNewtonHessian, box_qp)


def make_instances(rng, count, **kw):
    out = []
    for _ in range(count):
        problem = random_problem(rng, **kw)
        state = random_interior_state(rng, problem)
        out.append((problem, state))
    return out


def scalar_instance():
    """n=1, one lower-bounded linear constraint, unit slack/multiplier: Q=B=D=1."""
    problem = QpProblem(
        n=1, hessian=DiagonalHessian([1.0]), p=[0.0],
        a=sparse_from_dense([[1.0]]),
        lin_bounds=Bounds([0.0], [np.inf]),
        c=sp.csr_matrix((0, 1)), b=[],
        var_bounds=Bounds.free(1))
    state = make_state([0.5], 0.1, s_lA=[1.0], lam_lA=[1.0])
    return problem, state


class TestBoundIndexMap:
    def test_families(self):
        problem = QpProblem(
            n=3, hessian=DiagonalHessian([1.0] * 3), p=[0.0] * 3,
            a=sparse_from_dense([[1.0, 0, 0], [0, 1.0, 0]]),
            lin_bounds=Bounds([0.0, -np.inf], [np.inf, 2.0]),
            c=sp.csr_matrix((0, 3)), b=[],
            var_bounds=Bounds([0.0, -np.inf, 1.0], [np.inf, np.inf, 2.0]))
        bmap = BoundIndexMap.from_problem(problem)
        # A lower row 0 | A upper row 1 | x0 >= 0, x2 >= 1 | x2 <= 2
        assert bmap.m_eq == 0
        assert bmap.splits == (1, 2, 4)
        assert bmap.m_rows == 2
        np.testing.assert_array_equal(bmap.var_idx, [0, 2, 2])
        np.testing.assert_array_equal(bmap.var_sign, [1.0, 1.0, -1.0])
        np.testing.assert_array_equal(bmap.g0, [0.0, -2.0, 0.0, 1.0, -2.0])
        np.testing.assert_array_equal(bmap.b.toarray(), [[1, 0, 0], [0, -1, 0]])
        x = np.array([3.0, 5.0, 7.0])
        np.testing.assert_array_equal(bmap.g(x, bmap.b @ x), [3.0, -5.0, 3.0, 7.0, -7.0])


class TestComputeResiduals:
    def test_stationary_point_gives_zero_blocks(self):
        # min 1/2 x^2 with x >= 1 at the barrier-central point for mu:
        # x - lam = 0, x - 1 - s = 0, lam*s = mu
        mu = 0.5
        # solve x(x-1) = mu for x > 1
        x = 0.5 * (1 + np.sqrt(1 + 4 * mu))
        problem = box_qp(DiagonalHessian([1.0]), [0.0], [1.0], [np.inf])
        state = make_state([x], mu, s_lx=[x - 1.0], lam_lx=[x])
        res = compute_residuals(problem, state)
        assert res.norm() < 1e-12

    def test_complementarity_pair(self):
        problem = box_qp(DiagonalHessian([1.0]), [0.0], [0.0], [np.inf])
        state = make_state([3.0], 6.0, s_lx=[3.0], lam_lx=[2.0])
        res = compute_residuals(problem, state)
        assert res.r_c[0] == 0.0

    def test_matches_dense_transcription(self, rng):
        for problem, state in make_instances(rng, 8, n=5):
            res = compute_residuals(problem, state)
            blocks = DenseParts(problem, state).residual_blocks()
            oracle = {
                "r_H": blocks["r_H"], "r_e": blocks["r_e"],
                "r_p": np.concatenate([blocks[k] for k in ("r_lA", "r_uA", "r_lx", "r_ux")]),
                "r_c": np.concatenate([blocks[f"r_c{i}"] for i in range(1, 5)]),
            }
            for name, block in oracle.items():
                np.testing.assert_allclose(getattr(res, name), block,
                                           rtol=1e-12, atol=1e-12,
                                           err_msg=name)


class TestBuildOperator:
    def test_d_diag_example(self):
        problem = QpProblem(
            n=1, hessian=DiagonalHessian([1.0]), p=[0.0],
            a=sparse_from_dense([[1.0]]),
            lin_bounds=Bounds([0.0], [5.0]),
            c=sparse_from_dense([[1.0]]), b=[0.0],
            var_bounds=Bounds.free(1))
        state = make_state([1.0], 0.1, lam_e=[0.0], s_lA=[2.0], s_uA=[1.0],
                           lam_lA=[4.0], lam_uA=[0.5])
        op = build_operator(problem, state)
        np.testing.assert_allclose(op.d_diag, [0.1, 0.5, 2.0])

    def test_q_diag_extra_single_lower_bound(self):
        problem = box_qp(DiagonalHessian([1.0, 1.0]), [0.0, 0.0],
                         [0.0, -np.inf], [np.inf, np.inf])
        state = make_state(np.zeros(2), 0.5, s_lx=[1.0], lam_lx=[3.0])
        op = build_operator(problem, state)
        np.testing.assert_allclose(op.q_diag_extra, [3.0, 0.0])

    def test_d_diag_strictly_positive(self, rng):
        for problem, state in make_instances(rng, 10):
            op = build_operator(problem, state)
            if len(op.d_diag):
                assert op.d_diag.min() > 0.0


class TestApplyDoublyAugmented:
    def test_identity_q_no_constraints(self, rng):
        problem = box_qp(DiagonalHessian([1.0, 1.0]), [0.0, 0.0],
                         [-np.inf, -np.inf], [np.inf, np.inf])
        # no finite bounds: operator is exactly the Hessian block
        state = make_state(np.zeros(2), 0.5)
        op = build_operator(problem, state)
        u = rng.standard_normal(2)
        np.testing.assert_allclose(apply_doubly_augmented(op, u), u)

    def test_scalar_case(self):
        problem, state = scalar_instance()
        op = build_operator(problem, state)
        np.testing.assert_allclose(
            apply_doubly_augmented(op, np.array([1.0, 0.0])), [3.0, 1.0])
        np.testing.assert_allclose(
            apply_doubly_augmented(op, np.array([0.0, 1.0])), [1.0, 1.0])

    def test_matches_dense_assembly(self, rng):
        for problem, state in make_instances(rng, 8, n=5, m_a=3):
            op = build_operator(problem, state)
            k = assemble_dense(op)
            for _ in range(4):
                v = rng.standard_normal(op.dim)
                np.testing.assert_allclose(apply_doubly_augmented(op, v), k @ v,
                                           rtol=1e-10, atol=1e-10)

    def test_symmetry(self, rng):
        for problem, state in make_instances(rng, 10):
            op = build_operator(problem, state)
            for _ in range(10):
                u = rng.standard_normal(op.dim)
                v = rng.standard_normal(op.dim)
                uv = u @ apply_doubly_augmented(op, v)
                vu = v @ apply_doubly_augmented(op, u)
                assert abs(uv - vu) <= 1e-10 * (1.0 + abs(uv))

    def test_positive_definiteness(self, rng):
        for problem, state in make_instances(rng, 10):
            op = build_operator(problem, state)
            for _ in range(100):
                v = rng.standard_normal(op.dim)
                assert v @ apply_doubly_augmented(op, v) > 0.0


class TestJacobiDiagonal:
    def test_scalar_case(self):
        problem, state = scalar_instance()
        op = build_operator(problem, state)
        np.testing.assert_allclose(jacobi_diagonal(op), [3.0, 1.0])

    def test_no_constraints(self):
        problem = box_qp(DiagonalHessian([2.0, 5.0]), [0.0, 0.0],
                         [-np.inf] * 2, [np.inf] * 2)
        state = make_state(np.zeros(2), 0.5)
        op = build_operator(problem, state)
        np.testing.assert_allclose(jacobi_diagonal(op), [2.0, 5.0])

    def test_equals_probe_diagonal(self, rng):
        for problem, state in make_instances(rng, 8):
            op = build_operator(problem, state)
            diag = jacobi_diagonal(op)
            assert diag.min() > 0.0
            for j in range(op.dim):
                e = np.zeros(op.dim)
                e[j] = 1.0
                probe = apply_doubly_augmented(op, e)[j]
                assert diag[j] == pytest.approx(probe, rel=1e-12)

    def test_preconditioned_dense_matrix_has_unit_diagonal(self, rng):
        for problem, state in make_instances(rng, 5):
            op = build_operator(problem, state)
            k = assemble_dense(op)
            scale = 1.0 / np.sqrt(jacobi_diagonal(op))
            precond = scale[:, None] * k * scale[None, :]
            np.testing.assert_allclose(np.diag(precond), 1.0, rtol=1e-12)


class TestAssembleRhs:
    def test_zero_residuals_give_zero(self, rng):
        problem, state = scalar_instance()
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)
        zero = type(res)(**{k: np.zeros_like(v) for k, v in res.__dict__.items()})
        np.testing.assert_array_equal(assemble_rhs(op, zero, state),
                                      np.zeros(op.dim))

    def test_unconstrained_is_negated_stationarity(self):
        problem = box_qp(DiagonalHessian([1.0]), [1.0], [-np.inf], [np.inf])
        state = make_state(np.zeros(1), 0.5)
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)  # r_H = p = (1)
        np.testing.assert_allclose(assemble_rhs(op, res, state), [-1.0])

    def test_matches_dense_reduction(self, rng):
        for problem, state in make_instances(rng, 8, n=6):
            op = build_operator(problem, state)
            res = compute_residuals(problem, state)
            rhs = assemble_rhs(op, res, state)
            _, oracle_rhs = DenseParts(problem, state).doubly_augmented_system()
            np.testing.assert_allclose(rhs, oracle_rhs, rtol=1e-11, atol=1e-11)


class TestBlockRowEquivalence:
    def test_reduced_and_doubly_augmented_share_solutions(self, rng):
        for problem, state in make_instances(rng, 10):
            parts = DenseParts(problem, state)
            k8, rhs8 = parts.augmented_system()
            k9, rhs9 = parts.doubly_augmented_system()
            x8 = dense_solve(k8, rhs8)
            x9 = dense_solve(k9, rhs9)
            np.testing.assert_allclose(
                x9, x8, rtol=1e-10, atol=1e-10 * (1.0 + np.abs(x8).max()))

    def test_package_dense_assembly_matches_oracle(self, rng):
        for problem, state in make_instances(rng, 6):
            op = build_operator(problem, state)
            parts = DenseParts(problem, state)
            k9, _ = parts.doubly_augmented_system()
            np.testing.assert_allclose(assemble_dense(op), np.atleast_2d(k9),
                                       rtol=1e-11, atol=1e-11)
            k8, _ = parts.augmented_system()
            np.testing.assert_allclose(assemble_dense_augmented(op),
                                       np.atleast_2d(k8), rtol=1e-11, atol=1e-11)

    def test_dense_cap(self, rng):
        problem, state = scalar_instance()
        op = build_operator(problem, state)
        with pytest.raises(ValueError):
            assemble_dense(op, cap=1)


class TestRecoverDirections:
    def test_zero_in_zero_out(self):
        problem, state = scalar_instance()
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)
        zero = type(res)(**{k: np.zeros_like(v) for k, v in res.__dict__.items()})
        d = recover_directions(op, np.zeros(1), np.zeros(1), zero, state)
        for block in d.__dict__.values():
            assert not np.any(block)

    def test_single_lower_var_bound_full_residual(self):
        problem = box_qp(DiagonalHessian([2.0]), [-1.0], [0.5], [np.inf])
        state = make_state([1.5], 0.2, s_lx=[0.7], lam_lx=[0.4])
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)
        parts = DenseParts(problem, state)
        k9, rhs9 = parts.doubly_augmented_system()
        sol = np.atleast_1d(dense_solve(np.atleast_2d(k9), np.atleast_1d(rhs9)))
        d = recover_directions(op, sol[:1], sol[1:], res, state)
        k_full, rhs_full = parts.full_system()
        resid = k_full @ parts.direction_vector(d) - rhs_full
        assert np.linalg.norm(resid) < 1e-12

    def test_full_system_consistency_random(self, rng):
        for problem, state in make_instances(rng, 10, n=6):
            op = build_operator(problem, state)
            res = compute_residuals(problem, state)
            parts = DenseParts(problem, state)
            k9, rhs9 = parts.doubly_augmented_system()
            sol = dense_solve(np.atleast_2d(k9), np.atleast_1d(rhs9))
            d = recover_directions(op, sol[:problem.n], sol[problem.n:], res, state)
            k_full, rhs_full = parts.full_system()
            resid = k_full @ parts.direction_vector(d) - rhs_full
            assert np.linalg.norm(resid) <= 1e-8 * (1.0 + np.linalg.norm(rhs_full))

    def test_matches_dense_full_system_solve(self, rng):
        for problem, state in make_instances(rng, 6, n=6):
            op = build_operator(problem, state)
            res = compute_residuals(problem, state)
            parts = DenseParts(problem, state)
            k9, rhs9 = parts.doubly_augmented_system()
            sol = dense_solve(np.atleast_2d(k9), np.atleast_1d(rhs9))
            d = recover_directions(op, sol[:problem.n], sol[problem.n:], res, state)
            k_full, rhs_full = parts.full_system()
            full = dense_solve(k_full, rhs_full)
            got = parts.direction_vector(d)
            np.testing.assert_allclose(
                got, full, rtol=1e-8, atol=1e-8 * (1.0 + np.abs(full).max()))


def _indefinite_weight_hessian(rng, n):
    """H = h0 I + U diag(w) U' with one negative weight, h0 large enough for H > 0."""
    u = rng.standard_normal((n, 3))
    w = np.array([0.7, -0.4, 0.2])
    h0 = 0.5 + 0.4 * float(u[:, 1] @ u[:, 1])
    return QuasiNewtonHessian(np.full(n, h0), u, w)


class _CountingProducts:
    """A matrix standing in for another that counts the products made with it."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __getitem__(self, key):
        return self.matrix[key]

    def __matmul__(self, other):
        self.products += 1
        return self.matrix @ other


class TestPreconditioner:
    def test_matches_dense_inverse_on_quasi_newton(self, rng):
        for problem, state in make_instances(rng, 20, hessian_kind="bfgs"):
            op = build_operator(problem, state)
            m, _ = dense_preconditioner(problem, state)
            for _ in range(3):
                v = rng.standard_normal(op.dim)
                np.testing.assert_allclose(preconditioner(op)(v),
                                           np.linalg.solve(m, v),
                                           rtol=1e-10, atol=1e-12)

    def test_negative_weight_with_psd_hessian(self, rng):
        for _ in range(5):
            problem = replace(random_problem(rng, n=8),
                              hessian=_indefinite_weight_hessian(rng, 8))
            assert np.linalg.eigvalsh(dense_hessian(problem.hessian)).min() > 0
            state = random_interior_state(rng, problem)
            op = build_operator(problem, state)
            m, _ = dense_preconditioner(problem, state)
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(preconditioner(op)(v), np.linalg.solve(m, v),
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kind", ["diagonal", "sparse", "dense", "bfgs_k0"])
    def test_other_hessians_keep_jacobi_bitwise(self, rng, kind):
        for _ in range(5):
            problem = random_problem(rng, n=7, m_e=0, hessian_kind=kind)
            if kind == "bfgs_k0":
                problem = replace(problem, hessian=QuasiNewtonHessian(
                    rng.uniform(0.5, 2.0, 7), np.zeros((7, 0)), np.zeros(0)))
            state = random_interior_state(rng, problem)
            # large slacks on the rows of B: every D_i is large, no row dominates
            m = problem.layout.m_rows
            state = replace(state, s=np.concatenate([1e3 * state.s[:m], state.s[m:]]))
            assert dense_preconditioner(problem, state)[1] == []
            op = build_operator(problem, state)
            v = rng.standard_normal(op.dim)
            np.testing.assert_array_equal(preconditioner(op)(v),
                                          (1.0 / jacobi_diagonal(op)) * v)

    def test_dominant_row_is_kept_and_weak_row_folded(self):
        # H = I, no variable bounds (T0 = 1), D = 1. Row 0 = (2, 2):
        # 2 * 4 / 1 = 8 > 1, kept whole. Row 1 = (0.5, 0.5): 2 * 0.25 = 0.5,
        # folded into T = 1 + 0.5. With the full Jacobi diagonal 9.5 in place
        # of T0, row 0's ratio 8 / 9.5 would fall below 1.
        problem = QpProblem(
            n=2, hessian=DiagonalHessian([1.0, 1.0]), p=[0.0, 0.0],
            a=sparse_from_dense([[2.0, 2.0], [0.5, 0.5]]),
            lin_bounds=Bounds([0.0, 0.0], [np.inf, np.inf]),
            c=sp.csr_matrix((0, 2)), b=[], var_bounds=Bounds.free(2))
        state = make_state([0.0, 0.0], 0.1, s_lA=[1.0, 1.0], lam_lA=[1.0, 1.0])
        m, kept = dense_preconditioner(problem, state)
        assert kept == [0]
        np.testing.assert_allclose(m[:2, :2], [[9.5, 8.0], [8.0, 9.5]])
        op = build_operator(problem, state)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(preconditioner(op)(v), np.linalg.solve(m, v),
                                   rtol=1e-12)
        assert not np.allclose(preconditioner(op)(v), (1.0 / jacobi_diagonal(op)) * v)

    def test_kept_rows_make_no_product_with_all_of_bt(self):
        # the instance of test_dominant_row_is_kept_and_weak_row_folded: row 0
        # is kept, row 1 folded, so B_k' is a strict part of B'
        problem = QpProblem(
            n=2, hessian=DiagonalHessian([1.0, 1.0]), p=[0.0, 0.0],
            a=sparse_from_dense([[2.0, 2.0], [0.5, 0.5]]),
            lin_bounds=Bounds([0.0, 0.0], [np.inf, np.inf]),
            c=sp.csr_matrix((0, 2)), b=[], var_bounds=Bounds.free(2))
        state = make_state([0.0, 0.0], 0.1, s_lA=[1.0, 1.0], lam_lA=[1.0, 1.0])
        m, kept = dense_preconditioner(problem, state)
        assert kept == [0]
        bt = _CountingProducts(problem.layout.bt)
        problem.__dict__["layout"] = replace(problem.layout, bt=bt)  # cached_property slot
        apply = preconditioner(build_operator(problem, state))
        for v in np.eye(4):
            np.testing.assert_allclose(apply(v), np.linalg.solve(m, v),
                                       rtol=1e-12, atol=1e-15)
        assert bt.products == 0

    def test_quasi_newton_with_kept_rows_matches_dense_inverse(self, rng):
        checked = 0
        for problem, state in make_instances(rng, 20, n=8, m_a=5, m_e=2,
                                             hessian_kind="bfgs"):
            m, kept = dense_preconditioner(problem, state)
            if not kept:
                continue
            assert problem.hessian.u.shape[1] >= 1
            checked += 1
            op = build_operator(problem, state)
            v = rng.standard_normal(op.dim)
            np.testing.assert_allclose(preconditioner(op)(v), np.linalg.solve(m, v),
                                       rtol=1e-10, atol=1e-12)
        assert checked >= 10

    def test_nonpositive_t_falls_back_to_jacobi(self):
        # h0 = 0 on a free variable: T_0 = 0, while diag(H)_0 = 1 > 0
        problem = box_qp(QuasiNewtonHessian([0.0, 1.0], [[1.0], [1.0]], [1.0]),
                         [1.0, 1.0], [-np.inf, -1.0], [np.inf, 1.0])
        op = build_operator(problem, initialize(problem, IpmConfig()))
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(preconditioner(op)(v),
                                      (1.0 / jacobi_diagonal(op)) * v)
        assert solve(problem).status is SolveStatus.CONVERGED

    def test_nonpositive_t_with_a_kept_row_falls_back_to_jacobi(self):
        # T0 = h0 = (0, 1); the row (0, 2) is kept (ratio 2 * 4 / 1 = 8), so
        # T = T0 keeps its 0 and M is Jacobi on the full diagonal
        problem = QpProblem(
            n=2, hessian=QuasiNewtonHessian([0.0, 1.0], [[1.0], [1.0]], [1.0]),
            p=[0.0, 1.0], a=sparse_from_dense([[0.0, 2.0]]),
            lin_bounds=Bounds([0.0], [np.inf]),
            c=sp.csr_matrix((0, 2)), b=[], var_bounds=Bounds.free(2))
        state = make_state([0.0, 1.0], 0.1, s_lA=[1.0], lam_lA=[1.0])
        assert dense_preconditioner(problem, state)[1] == [0]
        op = build_operator(problem, state)
        v = np.array([1.0, -2.0, 0.5])
        diag = jacobi_diagonal(op)
        np.testing.assert_array_equal(preconditioner(op)(v),
                                      (1.0 / np.where(diag > 0, diag, 1.0)) * v)

    def test_singular_capacitance_falls_back_to_jacobi(self):
        # H = diag(0, 1): the free variable's block T + UWU' is exactly 0
        problem = box_qp(QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [-1.0]),
                         [0.0, 1.0], [-np.inf, -1.0], [np.inf, 1.0])
        op = build_operator(problem, initialize(problem, IpmConfig()))
        v = np.array([1.0, -2.0])
        diag = jacobi_diagonal(op)
        assert diag[0] == 0.0
        np.testing.assert_array_equal(preconditioner(op)(v),
                                      (1.0 / np.where(diag > 0, diag, 1.0)) * v)

    def test_box_only_quasi_newton_solves_take_at_most_two_cg_steps(self, rng):
        n, k = 500, 5
        hessian = QuasiNewtonHessian(rng.uniform(0.5, 2.0, n),
                                     0.3 * rng.standard_normal((n, k)),
                                     rng.uniform(0.1, 1.0, k))
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        boxed = rng.choice(n, n // 5, replace=False)
        lo[boxed], hi[boxed] = -1.0, 1.0
        report = solve(box_qp(hessian, rng.standard_normal(n), lo, hi))
        assert report.status is SolveStatus.CONVERGED
        assert max(t.cg_iters for t in report.trace) <= 2

    def test_build_does_not_allocate_an_n_by_k_temporary(self):
        n, k = 200_000, 20
        rng = np.random.default_rng(7)
        hessian = QuasiNewtonHessian(rng.uniform(0.5, 2.0, n),
                                     0.1 * rng.standard_normal((n, k)),
                                     rng.uniform(0.1, 1.0, k))
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        lo[:n // 10], hi[:n // 10] = -1.0, 1.0
        problem = box_qp(hessian, np.zeros(n), lo, hi)
        op = build_operator(problem, initialize(problem, IpmConfig()))
        for build in (lambda: preconditioner(op),
                      lambda: BoundIndexMap.from_problem(problem)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20  # U itself is 32 MB
