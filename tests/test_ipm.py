import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assemble_dense, centering_target, dense_solve, families,
                     make_state, random_interior_state, random_problem,
                     sparse_from_dense)
from qpipm import ipm
from qpipm.ipm import (InteriorityError, IpmConfig, SolveStatus, apply_step,
                       infeasibilities, initialize, solve, step_lengths,
                       update_barrier)
from qpipm.kkt import (FullDirection, Residuals, apply_doubly_augmented,
                       build_operator, compute_residuals, preconditioner,
                       recover_directions)
from qpipm.linalg import PcgBreakdownError, PcgConfig, PcgResult, pcg
from qpipm.model import (Bounds, DenseHessian, DiagonalHessian, QpProblem,
                         QuasiNewtonHessian, SparseHessian, SparseMatrix, box_qp)


def equality_problem():
    """min 1/2 ||x||^2 s.t. x1 + x2 = 1, -10 <= x <= 10; optimum (0.5, 0.5)."""
    return QpProblem(
        n=2, hessian=DiagonalHessian([1.0, 1.0]), p=[0.0, 0.0],
        a=sp.csr_matrix((0, 2)), lin_bounds=Bounds.free(0),
        c=SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, 1.0]), b=[1.0],
        var_bounds=Bounds([-10.0, -10.0], [10.0, 10.0]))


def infeasible_problem():
    """x >= 1 as a row of A, x <= 0 as a variable bound."""
    return QpProblem(
        n=1, hessian=DiagonalHessian([1.0]), p=[0.0], a=sp.csr_matrix([[1.0]]),
        lin_bounds=Bounds([1.0], [np.inf]), c=sp.csr_matrix((0, 1)), b=[],
        var_bounds=Bounds([-np.inf], [0.0]))


def direction_from_dense_oracle(op, rhs, pcg_cfg, prec, x0):
    """Test hook: replace PCG by a dense factorization of the assembled system."""
    sol = dense_solve(assemble_dense(op), rhs)
    resid = float(np.linalg.norm(rhs - assemble_dense(op) @ sol))
    return PcgResult(sol, 0, resid, True)


class TestInitialize:
    def test_box_midpoint(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [0.0], [2.0])
        st0 = initialize(p, IpmConfig())
        assert st0.x[0] == 1.0
        np.testing.assert_array_equal(families(st0).s_lx, [1.0])
        np.testing.assert_array_equal(families(st0).s_ux, [1.0])

    def test_lower_bound_only(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [1.0], [np.inf])
        st0 = initialize(p, IpmConfig())
        assert st0.x[0] == 2.0
        np.testing.assert_array_equal(families(st0).s_lx, [1.0])
        assert len(families(st0).s_ux) == 0

    def test_free_variable(self):
        p = equality_problem()
        p_free = QpProblem(n=2, hessian=p.hessian, p=p.p, a=p.a,
                           lin_bounds=p.lin_bounds, c=p.c, b=p.b,
                           var_bounds=Bounds.free(2))
        st0 = initialize(p_free, IpmConfig(mu_tol=1e-4))
        np.testing.assert_array_equal(st0.x, [0.0, 0.0])
        assert len(st0.s) == 0 and len(st0.lam) == 0
        assert st0.mu == pytest.approx(1e-5)  # no pairs: the floor mu_tol/10

    def test_unit_multipliers_and_mu(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [0.0], [2.0])
        st0 = initialize(p, IpmConfig())
        np.testing.assert_array_equal(st0.lam_lx, [1.0])
        np.testing.assert_array_equal(st0.lam_ux, [1.0])
        assert st0.mu == 1.0  # s'lam/m with both slacks 1

    def test_strict_interiority_random(self, rng):
        for _ in range(10):
            p = random_problem(rng)
            st0 = initialize(p, IpmConfig())
            assert st0.min_interior() > 0.0


def _direction_with(state, **blocks):
    d = FullDirection(
        dx=np.zeros_like(state.x), d_lam_e=np.zeros_like(state.lam_e),
        ds=np.zeros_like(state.s), d_lam=np.zeros_like(state.lam))
    return FullDirection(**{**d.__dict__, **blocks})


def _state_with_slacks(s, lam):
    return make_state(np.zeros(1), 1.0, s_lx=s, lam_lx=lam)


class TestStepLengths:
    def test_ratio_test_example(self):
        state = _state_with_slacks([1.0, 4.0], [1.0, 1.0])
        d = _direction_with(state, ds=np.array([-2.0, -1.0]))
        ax, al = step_lengths(state, d, 0.99)
        assert ax == pytest.approx(0.495)
        assert al == 1.0

    def test_nonnegative_deltas_give_unit_step(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, ds=np.array([2.0]))
        ax, al = step_lengths(state, d, 0.99)
        assert ax == 1.0 and al == 1.0

    def test_multiplier_ratio(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, d_lam=np.array([-1.0]))
        ax, al = step_lengths(state, d, 0.99)
        assert ax == 1.0
        assert al == pytest.approx(0.99)

    def test_lam_e_excluded(self):
        p = equality_problem()
        state = initialize(p, IpmConfig())
        d = _direction_with(state, d_lam_e=np.array([-100.0]))
        ax, al = step_lengths(state, d, 0.99)
        assert ax == 1.0 and al == 1.0


class TestApplyStep:
    def test_zero_direction_is_identity(self):
        state = _state_with_slacks([1.0], [2.0])
        d = _direction_with(state)
        new = apply_step(state, d, 1.0, 1.0, 1e-6)
        np.testing.assert_array_equal(new.s, state.s)
        np.testing.assert_array_equal(new.lam, state.lam)

    def test_near_boundary_stays_interior(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, ds=np.array([-1.0]))
        new = apply_step(state, d, 0.99, 0.0, 1e-6)
        assert new.s[0] == pytest.approx(0.01)
        assert new.s[0] > 0.0

    def test_interiority_violation_raises(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, ds=np.array([-2.0]))
        with pytest.raises(InteriorityError):
            apply_step(state, d, 1.0, 0.0, 1e-6)

    def test_random_directions_stay_interior(self, rng):
        for _ in range(20):
            p = random_problem(rng)
            state = random_interior_state(rng, p)
            op = build_operator(p, state)
            res = compute_residuals(p, state)
            v = rng.standard_normal(op.dim)
            d = recover_directions(op, v[:p.n], v[p.n:], res, centering_target(state))
            ax, al = step_lengths(state, d, 0.99)
            new = apply_step(state, d, ax, al, 1e-6)
            assert new.min_interior() > 0.0


class TestInfeasibilities:
    """The measures of the stopping test: ||(r_e, r_p)||, ||r_H||, ||s * lam||."""

    def _res(self, **kw):
        blocks = {k: np.zeros(0) for k in ("r_H", "r_e", "r_p")}
        blocks.update({k: np.asarray(v, dtype=float) for k, v in kw.items()})
        return Residuals(**blocks)

    def test_all_zero(self):
        state = _state_with_slacks([], [])
        assert infeasibilities(self._res(), state) == (0.0, 0.0, 0.0)

    def test_dual_norm(self):
        state = _state_with_slacks([], [])
        assert infeasibilities(self._res(r_H=[3.0, 4.0]), state)[1] == 5.0

    def test_primal_norm_includes_equality_block(self):
        state = _state_with_slacks([1.0], [1.0])
        primal, _, _ = infeasibilities(self._res(r_e=[3.0], r_p=[0.0]), state)
        assert primal == 3.0
        primal, _, _ = infeasibilities(self._res(r_e=[3.0], r_p=[4.0]), state)
        assert primal == 5.0

    def test_compl_norm(self):
        # the pairs themselves are measured, not their distance to mu
        state = _state_with_slacks([1.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert infeasibilities(self._res(), state)[2] == 3.0


class TestLinearSolverFailure:
    @pytest.mark.parametrize("failure", ["breakdown", "non_finite"])
    def test_failure_after_an_iteration_reports_the_last_iterate(self, failure):
        # PCG fails in the second iteration's predictor: the report holds
        # the first iterate, whose measures the trace recorded
        calls = []

        def direction(op, rhs, cfg, prec, x0):
            calls.append(1)
            if len(calls) <= 2:
                return ipm._pcg_direction(op, rhs, cfg, prec, x0)
            if failure == "breakdown":
                raise PcgBreakdownError(PcgResult(np.zeros(op.dim), 0, np.inf, False))
            return PcgResult(np.full(op.dim, np.nan), 1, np.inf, False)

        p = equality_problem()
        rep = solve(p, direction_solver=direction)
        assert rep.status is SolveStatus.LINEAR_SOLVER_FAILURE and rep.iterations == 1
        last = rep.trace[-1]
        assert infeasibilities(compute_residuals(p, rep.state), rep.state) \
            == (last.primal_inf, last.dual_inf, last.compl_inf)


class TestUpdateBarrier:
    """Mehrotra's target sigma mu with sigma = (mu_aff / mu)^3; here mu = 1."""

    def test_shrink_when_residual_small(self):
        state = _state_with_slacks([1.0, 1.0], [1.0, 1.0])
        d = _direction_with(state, ds=np.array([-0.9, -0.9]))
        assert update_barrier(state, d, IpmConfig()) == pytest.approx(1e-3)

    def test_no_change_when_residual_large(self):
        # the affine step raises the gap: sigma is capped at 1
        state = _state_with_slacks([1.0, 1.0], [1.0, 1.0])
        d = _direction_with(state, ds=np.array([1.0, 1.0]))
        assert update_barrier(state, d, IpmConfig()) == 1.0


class TestSolve:
    def test_active_lower_bound(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [1.0], [10.0])
        rep = solve(p)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.x[0] == pytest.approx(1.0, abs=1e-5)

    def test_interior_optimum(self):
        p = box_qp(DiagonalHessian([1.0]), [-2.0], [0.0], [10.0])
        rep = solve(p)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.x[0] == pytest.approx(2.0, abs=1e-5)
        assert rep.objective == pytest.approx(-2.0, abs=1e-4)

    def test_equality_constrained(self):
        rep = solve(equality_problem())
        assert rep.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=1e-4)

    def test_equality_only_problem_converges(self):
        """min 1/2 x'diag(1, 2, 4)x s.t. x1 + x2 + x3 = 7, no inequality:
        x = 7 d^-1 / sum(d^-1) = (4, 2, 1)."""
        p = QpProblem(
            n=3, hessian=DiagonalHessian([1.0, 2.0, 4.0]), p=np.zeros(3),
            a=sp.csr_matrix((0, 3)), lin_bounds=Bounds.free(0),
            c=SparseMatrix.from_coo(1, 3, [0, 0, 0], [0, 1, 2], [1.0, 1.0, 1.0]),
            b=[7.0], var_bounds=Bounds.free(3))
        rep = solve(p)
        assert rep.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(rep.x, [4.0, 2.0, 1.0], atol=1e-5)
        assert rep.trace[-1].compl_inf == 0.0

    def test_converged_implies_mu_below_tol(self):
        cfg = IpmConfig()
        rep = solve(equality_problem(), cfg)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.state.mu < cfg.mu_tol

    def test_trace_shape(self):
        cfg = IpmConfig()
        rep = solve(equality_problem(), cfg)
        assert len(rep.trace) == rep.iterations
        assert [t.iter for t in rep.trace] == list(range(1, rep.iterations + 1))
        assert all(t.cg_iters <= cfg.pcg.max_iters for t in rep.trace)

    def test_trace_records_cg_convergence(self, capsys):
        rep = solve(equality_problem(), verbose=True)
        assert rep.trace and all(t.cg_converged is True for t in rep.trace)
        assert "NOT converged" not in capsys.readouterr().out

    def test_trace_records_capped_cg(self, capsys):
        # cg_iters sums the predictor's and the corrector's capped solves
        cfg = IpmConfig(max_iters=3, pcg=PcgConfig(max_iters=1))
        rep = solve(equality_problem(), cfg, verbose=True)
        assert rep.trace[0].cg_iters == 2
        assert rep.trace[0].cg_converged is False
        assert "cg     2 NOT converged" in capsys.readouterr().out

    def test_centering_at_convergence(self):
        rep = solve(equality_problem())
        st_ = rep.state
        pairs = st_.lam * st_.s
        assert np.all(pairs <= 10.0 * st_.mu)
        assert np.all(pairs >= st_.mu / 10.0)

    def test_dense_oracle_direction_matches_pcg(self, rng):
        for seed in range(3):
            p = random_problem(np.random.default_rng(seed), n=6, m_a=3, m_e=1)
            # stop at a moderate mu: the dense pivoted oracle flags the
            # (deliberately) ill-conditioned late-stage systems as singular
            cfg = IpmConfig(max_iters=30, mu_tol=1e-4,
                            pcg=PcgConfig(tol=1e-12, max_iters=10000))
            rep_cg = solve(p, cfg)
            rep_dense = solve(p, cfg, direction_solver=direction_from_dense_oracle)
            k = min(len(rep_cg.trace), len(rep_dense.trace), 10)
            assert k > 0
            # trajectories agree while both runs are on the same mu schedule
            np.testing.assert_allclose(rep_cg.x, rep_dense.x, atol=1e-4)

    def test_nan_preconditioner_is_a_solver_failure(self):
        # H = -10 < 0: the first CG step meets negative curvature
        p = box_qp(DiagonalHessian([-10.0]), [0.5], [-1.0], [1.0])
        cfg = IpmConfig(max_iters=3, pcg=PcgConfig(max_iters=50))
        rep = solve(p, cfg)
        assert rep.status is SolveStatus.LINEAR_SOLVER_FAILURE
        assert rep.iterations == 0

    def test_zero_curvature_free_variable_converges(self):
        # H = diag(0, 1): the free variable's Jacobi entry is 0
        p = box_qp(QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [-1.0]),
                   [0.0, 1.0], [-np.inf, -1.0], [np.inf, 1.0])
        rep = solve(p)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.objective == pytest.approx(-0.5, abs=1e-6)
        # the bound x1 >= -1 holds with a zero multiplier at the optimum, so
        # the final iterate is about sqrt(mu), not mu, inside it
        assert rep.x[1] == pytest.approx(-1.0, abs=1e-3)

    def test_report_keeps_per_family_multiplier_views(self):
        p = QpProblem(
            n=3, hessian=DiagonalHessian([1.0, 2.0, 3.0]), p=[1.0, -1.0, 0.5],
            a=sparse_from_dense([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
            lin_bounds=Bounds([-1.0, -np.inf], [1.0, 2.0]),
            c=sp.csr_matrix((0, 3)), b=[],
            var_bounds=Bounds([-5.0, 0.0, -np.inf], [5.0, np.inf, np.inf]))
        st_ = solve(p).state
        views = {"lam_lA": 1, "lam_uA": 2, "lam_lx": 2, "lam_ux": 1}
        for name, length in views.items():
            view = getattr(st_, name)
            assert len(view) == length, name
            assert np.shares_memory(view, st_.lam), name
            assert not view.flags.writeable, name
        np.testing.assert_array_equal(
            np.concatenate([getattr(st_, name) for name in views]), st_.lam)

    def test_infeasible_problem_is_a_numerical_failure(self):
        # the iterates diverge until a residual overflows; that ends the solve
        # with a status, not a traceback or a stream of overflow warnings
        rep = solve(infeasible_problem())
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert 0 < rep.iterations < IpmConfig().max_iters
        assert np.all(np.isfinite(rep.x)) and np.isfinite(rep.objective)

    def test_overflowing_start_point_is_a_numerical_failure(self):
        # x starts at its lower bound 1e300 + 1, so A x = 1e600 overflows
        p = QpProblem(
            n=1, hessian=DiagonalHessian([1.0]), p=[0.0],
            a=SparseMatrix.from_coo(1, 1, [0], [0], [1e300]),
            lin_bounds=Bounds([0.0], [np.inf]), c=sp.csr_matrix((0, 1)),
            b=np.zeros(0), var_bounds=Bounds([1e300], [np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve(p)
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.iterations == 0 and rep.objective == np.inf

    def test_step_out_of_the_interior_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(ipm, "step_lengths", lambda state, d, gamma: (1.0, 1.0))
        rep = solve(box_qp(DiagonalHessian([1.0]), [0.0], [1.0], [10.0]))
        assert rep.status is SolveStatus.NUMERICAL_FAILURE
        assert rep.iterations == 0

    def test_scaled_problem_converges_to_the_scaled_solution(self):
        """p, every bound and b times 1e4 with H unchanged scale x* by 1e4."""
        def problem(scale):
            rng = np.random.default_rng(11)
            n, m = 30, 10
            a = sp.random(m, n, density=0.3, random_state=5, format="csr")
            return QpProblem(
                n=n, hessian=DiagonalHessian(rng.uniform(1.0, 2.0, n)),
                p=scale * rng.standard_normal(n), a=a,
                lin_bounds=Bounds(np.full(m, -0.2 * scale), np.full(m, 0.2 * scale)),
                c=sp.csr_matrix((0, n)), b=[],
                var_bounds=Bounds(np.full(n, -scale), np.full(n, scale)))
        base, scaled = solve(problem(1.0)), solve(problem(1e4))
        assert base.status is SolveStatus.CONVERGED
        assert scaled.status is SolveStatus.CONVERGED
        np.testing.assert_allclose(scaled.x / 1e4, base.x, atol=1e-5)

    def test_one_preconditioner_per_iteration_and_warm_corrector(self, monkeypatch):
        built, starts = [], []

        def counting_preconditioner(op):
            built.append(op)
            return preconditioner(op)

        def recording_pcg(apply_op, apply_prec, rhs, cfg, x0=None):
            result = pcg(apply_op, apply_prec, rhs, cfg, x0=x0)
            starts.append((None if x0 is None else x0.copy(), result.solution.copy()))
            return result

        monkeypatch.setattr(ipm, "preconditioner", counting_preconditioner)
        monkeypatch.setattr(ipm, "pcg", recording_pcg)
        rep = solve(equality_problem())
        assert rep.status is SolveStatus.CONVERGED
        assert len(built) == rep.iterations
        assert len(starts) == 2 * rep.iterations
        for (pred_x0, pred_solution), (corr_x0, _) in zip(starts[::2], starts[1::2]):
            assert pred_x0 is None
            np.testing.assert_array_equal(corr_x0, pred_solution)

    @staticmethod
    def _recording_solve(problem):
        """Solve with a hook that runs PCG and records [prec, rhs, x0, op,
        result] per call; result stays None when PCG raised."""
        calls = []

        def direction(op, rhs, cfg, prec, x0):
            calls.append([prec, rhs, x0, op, None])
            calls[-1][4] = pcg(lambda v: apply_doubly_augmented(op, v), prec, rhs, cfg,
                               x0=None if x0 is None else x0.copy())
            return calls[-1][4]

        return solve(problem, direction_solver=direction), calls

    @pytest.mark.parametrize("hessian", [
        QuasiNewtonHessian([1.0, 2.0, 0.5, 1.5], [[1.0, 0.2], [-0.5, 1.0],
                                                  [0.3, 0.0], [0.0, -0.7]], [0.8, 0.3]),
        DiagonalHessian([1.0, 2.0, 0.5, 1.5])], ids=["quasi_newton", "diagonal"])
    def test_exact_preconditioner_starts_every_solve_at_its_inverse(self, hessian):
        problem = box_qp(hessian, [1.0, -3.0, 0.5, 2.0],
                         [-1.0, -1.0, -np.inf, 0.0], [1.0, 1.0, np.inf, np.inf])
        report, calls = self._recording_solve(problem)
        assert report.status is SolveStatus.CONVERGED
        assert len(calls) == 2 * report.iterations
        for prec, rhs, x0, op, result in calls:
            np.testing.assert_array_equal(x0, prec(rhs))
            assert result.converged and result.iterations == 0
            ref = dense_solve(assemble_dense(op), rhs)
            assert np.linalg.norm(result.solution - ref) <= 1e-6 * np.linalg.norm(ref)

    @pytest.mark.parametrize("problem", [
        # the zero-curvature problem: its capacitance matrix is singular
        box_qp(QuasiNewtonHessian([1.0, 1.0], [[1.0], [0.0]], [-1.0]),
               [0.0, 1.0], [-np.inf, -1.0], [np.inf, 1.0]),
        # H < 0: T <= 0
        box_qp(DiagonalHessian([-10.0]), [0.5], [-1.0], [1.0]),
        # sparse and dense H: M is the system's diagonal, not the system
        box_qp(SparseHessian(sp.csr_matrix([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                                            [0.0, -1.0, 2.0]])),
               [1.0, -2.0, 0.5], [-1.0, 0.0, -np.inf], [1.0, np.inf, 0.2]),
        box_qp(DenseHessian([[2.0, 0.5], [0.5, 1.0]]), [-3.0, 1.0],
               [0.0, -np.inf], [1.0, np.inf])],
        ids=["singular_capacitance", "negative_diagonal", "sparse", "dense"])
    def test_box_only_solves_start_at_the_preconditioner_inverse(self, problem):
        _, calls = self._recording_solve(problem)
        assert calls
        for prec, rhs, x0, _, _ in calls:
            np.testing.assert_array_equal(x0, prec(rhs))

    def test_iteration_limit_status(self):
        cfg = IpmConfig(max_iters=2)
        rep = solve(equality_problem(), cfg)
        assert rep.status is SolveStatus.ITERATION_LIMIT
        assert rep.iterations == 2

    def test_random_problems_converge(self, rng):
        ok = 0
        for seed in range(5):
            p = random_problem(np.random.default_rng(100 + seed), n=8, m_a=4, m_e=1)
            rep = solve(p)
            if rep.status is SolveStatus.CONVERGED:
                ok += 1
                res = compute_residuals(p, rep.state)
                primal, dual, _ = infeasibilities(res, rep.state)
                assert primal <= 1e-4 and dual <= 1e-4
        assert ok >= 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-8, 10.0), st.floats(1e-8, 10.0),
                          st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=4))
def test_update_barrier_properties(pairs):
    s, lam, ds, d_lam = (np.array(v) for v in zip(*pairs))
    state = _state_with_slacks(s, lam)
    cfg = IpmConfig()
    mu = s @ lam / len(s)
    floor = 0.1 * cfg.mu_tol / np.sqrt(len(s))
    target = update_barrier(state, _direction_with(state, ds=ds * s, d_lam=d_lam * lam), cfg)
    assert floor <= target <= max(mu, floor)
    # an affine step that makes no progress keeps mu
    assert update_barrier(state, _direction_with(state), cfg) == max(mu, floor)
    # one that reaches the boundary of every pair targets the floor
    assert update_barrier(state, _direction_with(state, ds=-s), cfg) == floor


def test_sparse_transposes_do_not_grow_with_iterations(monkeypatch):
    """B and B' are built once per problem, not per IPM or PCG iteration.
    Each solve gets a fresh problem, since a problem keeps its layout."""
    import scipy.sparse as sp

    def problem():
        return QpProblem(
            n=3, hessian=DiagonalHessian([1.0, 2.0, 3.0]), p=[1.0, -1.0, 0.5],
            a=sparse_from_dense([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]),
            lin_bounds=Bounds([-1.0, -2.0], [1.0, 2.0]),
            c=sparse_from_dense([[1.0, 0.0, 1.0]]), b=[0.5],
            var_bounds=Bounds([-5.0] * 3, [5.0] * 3))
    original = sp.csr_matrix.transpose
    counts = []

    def counting(self, *args, **kwargs):
        counts[-1] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
    for max_iters in (2, 4):
        counts.append(0)
        report = solve(problem(), IpmConfig(max_iters=max_iters))
        assert report.iterations == max_iters
    assert counts[0] == counts[1]


def test_sparse_hessian_stand_in_converges_without_capped_cg(monkeypatch):
    """The benchmark's sparse QP family with H = M'M + 0.1I: a strongly
    non-diagonal 2B'D^{-1}B term as D -> 0, on which Jacobi-preconditioned PCG
    hit its cap (38,942 CG in total) before B's dominant rows were kept whole
    in the preconditioner."""
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import _sparse_qp_instance

    q = _sparse_qp_instance(np.random.default_rng(7), 400, 20, 100)
    m = sp.random(400, 400, density=5 / 400, random_state=3)
    h = m.T @ m + 0.1 * sp.eye(400)
    problem = QpProblem(n=400, hessian=SparseHessian(h), p=q["p"],
                        a=q["a"], lin_bounds=Bounds(q["l"], q["u"]),
                        c=q["c"], b=q["b"], var_bounds=Bounds(q["lx"], q["ux"]))
    report = solve(problem)
    assert report.status is SolveStatus.CONVERGED
    assert sum(t.cg_iters for t in report.trace) <= 2000
    assert all(t.cg_iters < PcgConfig().max_iters for t in report.trace)
