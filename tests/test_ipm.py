import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (assemble_dense, dense_solve, families, make_state,
                     random_interior_state, random_problem, sparse_from_dense)
from qpipm.ipm import (InteriorityError, IpmConfig, SolveStatus, apply_step,
                       infeasibilities, initialize, solve, step_lengths,
                       update_barrier)
from qpipm.kkt import (FullDirection, Residuals, compute_residuals,
                       recover_directions, build_operator)
from qpipm.linalg import PcgConfig, PcgResult
from qpipm.model import (Bounds, DiagonalHessian, QpProblem,
                         QuasiNewtonHessian, SparseHessian, SparseMatrix, box_qp)


def equality_problem():
    """min 1/2 ||x||^2 s.t. x1 + x2 = 1, -10 <= x <= 10; optimum (0.5, 0.5)."""
    return QpProblem(
        n=2, hessian=DiagonalHessian([1.0, 1.0]), p=[0.0, 0.0],
        a=SparseMatrix.empty(0, 2), lin_bounds=Bounds.free(0),
        c=SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, 1.0]), b=[1.0],
        var_bounds=Bounds([-10.0, -10.0], [10.0, 10.0]))


def direction_from_dense_oracle(op, rhs, pcg_cfg):
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
        st0 = initialize(p_free, IpmConfig())
        np.testing.assert_array_equal(st0.x, [0.0, 0.0])
        assert len(st0.s) == 0 and len(st0.lam) == 0

    def test_unit_multipliers_and_mu(self):
        p = box_qp(DiagonalHessian([1.0]), [0.0], [0.0], [2.0])
        st0 = initialize(p, IpmConfig(mu_init=0.25))
        np.testing.assert_array_equal(st0.lam_lx, [1.0])
        np.testing.assert_array_equal(st0.lam_ux, [1.0])
        assert st0.mu == 0.25

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
        new = apply_step(state, d, 1.0, 1.0)
        np.testing.assert_array_equal(new.s, state.s)
        np.testing.assert_array_equal(new.lam, state.lam)

    def test_near_boundary_stays_interior(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, ds=np.array([-1.0]))
        new = apply_step(state, d, 0.99, 0.0)
        assert new.s[0] == pytest.approx(0.01)
        assert new.s[0] > 0.0

    def test_interiority_violation_raises(self):
        state = _state_with_slacks([1.0], [1.0])
        d = _direction_with(state, ds=np.array([-2.0]))
        with pytest.raises(InteriorityError):
            apply_step(state, d, 1.0, 0.0)

    def test_random_directions_stay_interior(self, rng):
        for _ in range(20):
            p = random_problem(rng)
            state = random_interior_state(rng, p)
            op = build_operator(p, state)
            res = compute_residuals(p, state)
            v = rng.standard_normal(op.dim)
            d = recover_directions(op, v[:p.n], v[p.n:], res, state)
            ax, al = step_lengths(state, d, 0.99)
            new = apply_step(state, d, ax, al)
            assert new.min_interior() > 0.0


class TestInfeasibilities:
    def _res(self, **kw):
        blocks = {k: np.zeros(0) for k in ("r_H", "r_e", "r_p", "r_c")}
        blocks.update({k: np.asarray(v, dtype=float) for k, v in kw.items()})
        return Residuals(**blocks)

    def test_all_zero(self):
        assert infeasibilities(self._res()) == (0.0, 0.0, 0.0)

    def test_dual_norm(self):
        assert infeasibilities(self._res(r_H=[3.0, 4.0]))[1] == 5.0

    def test_compl_norm(self):
        _, _, compl = infeasibilities(self._res(r_c=[1.0, 2.0, 2.0]))
        assert compl == 3.0


class TestUpdateBarrier:
    def test_shrink_when_residual_small(self):
        assert update_barrier(1e-2, 1e-3, IpmConfig()) == (1e-3, False)

    def test_no_change_when_residual_large(self):
        assert update_barrier(1e-3, 2e-3, IpmConfig()) == (1e-3, False)

    def test_terminate_below_tolerance(self):
        mu, terminate = update_barrier(5e-7, 1e-7, IpmConfig())
        assert terminate
        assert mu == 5e-7


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

    def test_converged_implies_mu_below_tol(self):
        cfg = IpmConfig()
        rep = solve(equality_problem(), cfg)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.state.mu < cfg.mu_tol

    def test_mu_nonincreasing_and_shrunk_by_factor(self):
        rep = solve(equality_problem())
        mus = [t.mu for t in rep.trace]
        assert all(b <= a for a, b in zip(mus, mus[1:]))
        distinct = sorted(set(mus), reverse=True)
        for a, b in zip(distinct, distinct[1:]):
            assert a / b == pytest.approx(10.0, rel=1e-9)

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
        cfg = IpmConfig(max_iters=3, pcg=PcgConfig(max_iters=1))
        rep = solve(equality_problem(), cfg, verbose=True)
        assert rep.trace[0].cg_iters == 1
        assert rep.trace[0].cg_converged is False
        assert "cg     1 NOT converged" in capsys.readouterr().out

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
            c=SparseMatrix.empty(0, 3), b=[],
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
                primal, dual, _ = infeasibilities(res)
                assert primal <= 1e-4 and dual <= 1e-4
        assert ok >= 4


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-8, 1.0), st.floats(1e-8, 10.0))
def test_update_barrier_properties(mu, rnorm):
    cfg = IpmConfig()
    new_mu, terminate = update_barrier(mu, rnorm, cfg)
    assert new_mu <= mu
    if rnorm >= mu:
        assert new_mu == mu and not terminate
    elif mu < cfg.mu_tol:
        assert terminate
    else:
        assert new_mu == pytest.approx(mu / cfg.mu_shrink)


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
    for max_iters in (2, 6):
        counts.append(0)
        report = solve(problem(), IpmConfig(max_iters=max_iters))
        assert report.iterations == max_iters
    assert counts[0] == counts[1]


def test_sparse_hessian_stand_in_converges_without_capped_cg(monkeypatch):
    """The benchmark's sparse QP family with H = M'M + 0.1I: a strongly
    non-diagonal 2B'D^{-1}B term as D -> 0, on which Jacobi-preconditioned PCG
    hit its cap (38,942 CG in total) before B's dominant rows were kept whole
    in the preconditioner."""
    import scipy.sparse as sp
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from inputs import _sparse_qp_instance

    q = _sparse_qp_instance(np.random.default_rng(7), 400, 20, 100)
    m = sp.random(400, 400, density=5 / 400, random_state=3)
    h = (m.T @ m + 0.1 * sp.eye(400)).tocoo()

    def matrix(a):
        a = a.tocoo()
        return SparseMatrix.from_coo(a.shape[0], a.shape[1], a.row, a.col, a.data)

    problem = QpProblem(n=400, hessian=SparseHessian(matrix(h)), p=q["p"],
                        a=matrix(q["a"]), lin_bounds=Bounds(q["l"], q["u"]),
                        c=matrix(q["c"]), b=q["b"], var_bounds=Bounds(q["lx"], q["ux"]))
    report = solve(problem)
    assert report.status is SolveStatus.CONVERGED
    assert sum(t.cg_iters for t in report.trace) <= 2000
    assert all(t.cg_iters < PcgConfig().max_iters for t in report.trace)
