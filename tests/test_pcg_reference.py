"""``linalg.pcg`` updates its vectors in place; it must round exactly as the
out-of-place loop kept in ``oracles.reference_pcg``."""

import numpy as np
import pytest

from oracles import (random_interior_state, random_problem, recording_identity,
                     reference_pcg)
from qpipm.kkt import apply_doubly_augmented, build_operator, preconditioner
from qpipm.linalg import PcgBreakdownError, PcgConfig, pcg


def assert_same_result(apply_op, apply_prec, rhs, cfg, **kw):
    got = pcg(apply_op, apply_prec, rhs, cfg, **kw)
    want = reference_pcg(apply_op, apply_prec, rhs, cfg, **kw)
    np.testing.assert_array_equal(got.solution, want.solution)
    assert got.iterations == want.iterations
    assert got.final_residual_norm == want.final_residual_norm
    assert got.converged == want.converged
    return got


def random_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.1 * np.eye(n)


def test_random_spd_with_jacobi(rng):
    for n in (5, 30, 80):
        a = random_spd(rng, n)
        inv_diag = 1.0 / np.diag(a)
        rhs = rng.standard_normal(n)
        res = assert_same_result(lambda v: a @ v, lambda v: inv_diag * v, rhs,
                                 PcgConfig(tol=1e-10))
        assert res.converged and res.iterations > 1


def test_warm_start_takes_the_same_steps(rng):
    a = random_spd(rng, 20)
    rhs = rng.standard_normal(20)
    x0 = rng.standard_normal(20)
    cfg = PcgConfig(tol=1e-10)
    got, want = [], []
    result = pcg(lambda v: a @ v, recording_identity(got), rhs, cfg, x0=x0)
    expected = reference_pcg(lambda v: a @ v, recording_identity(want), rhs, cfg, x0=x0)
    np.testing.assert_array_equal(result.solution, expected.solution)
    assert len(got) == len(want) > 1
    for r_got, r_want in zip(got, want):
        np.testing.assert_array_equal(r_got, r_want)


def test_capped_run_returns_the_same_best_iterate(rng):
    a = random_spd(rng, 40)
    rhs = rng.standard_normal(40)
    res = assert_same_result(lambda v: a @ v, lambda v: v / np.diag(a), rhs,
                             PcgConfig(tol=1e-14, max_iters=3))
    assert not res.converged and res.iterations == 3


def test_breakdown_carries_the_same_best_iterate():
    a = np.diag([1.0, 2.0, -1.0])
    rhs = np.array([1.0, 1.0, 1.0])
    results = []
    for solver in (pcg, reference_pcg):
        with pytest.raises(PcgBreakdownError) as exc:
            solver(lambda v: a @ v, lambda v: v, rhs, PcgConfig(tol=1e-12))
        results.append(exc.value.result)
    np.testing.assert_array_equal(results[0].solution, results[1].solution)
    assert results[0].iterations == results[1].iterations


def test_drift_restart_takes_the_same_steps():
    # Hilbert(10) with an identity preconditioner: the recurrence residual
    # drifts below the tolerance while the explicit one does not, so PCG
    # restarts. Without a restart, PCG applies the operator once per step
    # and once for the final explicit residual; each restart adds one.
    n = 10
    hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n) + 1.0)
    cfg = PcgConfig(tol=1e-10)
    applied = []

    def apply_op(v):
        applied.append(1)
        return hilbert @ v

    res = pcg(apply_op, lambda v: v, np.ones(n), cfg)
    assert res.converged and len(applied) > res.iterations + 1
    assert_same_result(lambda v: hilbert @ v, lambda v: v, np.ones(n), cfg)


def test_doubly_augmented_systems(rng):
    for _ in range(15):
        problem = random_problem(rng)
        op = build_operator(problem, random_interior_state(rng, problem))
        rhs = rng.standard_normal(op.dim)
        assert_same_result(lambda v: apply_doubly_augmented(op, v),
                           preconditioner(op), rhs, PcgConfig(tol=1e-12))
