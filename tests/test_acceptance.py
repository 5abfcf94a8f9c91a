"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The a1a criterion needs the dataset at data/a1a (or $QPIPM_A1A);
scripts/fetch_a1a.py downloads it where network access exists.
"""

import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (DenseParts, centering_target, dense_solve,
                     random_interior_state, random_problem)
from qpipm.ipm import (IpmConfig, SolveStatus, infeasibilities, initialize,
                       solve)
from qpipm.kkt import (apply_doubly_augmented, assemble_rhs, build_operator,
                       compute_residuals, jacobi_diagonal, recover_directions)
from qpipm.linalg import PcgConfig, pcg
from qpipm.model import (Bounds, QpProblem, QuasiNewtonHessian, SparseHessian,
                         SparseMatrix, box_qp)
from qpipm.svm import SvmConfig, SvmDataset, build_svm_dual, parse_libsvm

REPO_ROOT = Path(__file__).resolve().parent.parent

N_ORACLE_INSTANCES = 50


@pytest.fixture(scope="module")
def oracle_instances():
    """50 random convex QPs with interior states, shared across criteria 1-5."""
    out = []
    for seed in range(N_ORACLE_INSTANCES):
        rng = np.random.default_rng(7000 + seed)
        problem = random_problem(
            rng,
            n=int(rng.integers(2, 31)),
            m_a=int(rng.integers(0, 21)),
            m_e=int(rng.integers(0, 6)))
        state = random_interior_state(rng, problem)
        out.append((problem, state))
    return out


@pytest.fixture(scope="module")
def analytic_reports():
    problems = {
        "active_bound": box_qp(SparseHessian(sp.diags([1.0])), [0.0], [1.0], [10.0]),
        "interior_optimum": box_qp(SparseHessian(sp.diags([1.0])), [-2.0], [0.0], [10.0]),
        "equality": QpProblem(
            n=2, hessian=SparseHessian(sp.diags([1.0, 1.0])), p=[0.0, 0.0],
            a=sp.csr_matrix((0, 2)), lin_bounds=Bounds.free(0),
            c=SparseMatrix.from_coo(1, 2, [0, 0], [0, 1], [1.0, 1.0]),
            b=[1.0], var_bounds=Bounds([-10.0, -10.0], [10.0, 10.0])),
    }
    return {name: (p, solve(p, IpmConfig(max_iters=100)))
            for name, p in problems.items()}


def test_criterion_1_pcg_direction_matches_dense_oracle(oracle_instances):
    t0 = time.perf_counter()
    cfg = PcgConfig(tol=1e-10, max_iters=20000)
    worst = 0.0
    for problem, state in oracle_instances:
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)
        rhs = assemble_rhs(op, res, centering_target(state))
        cg = pcg(lambda v: apply_doubly_augmented(op, v),
                 lambda v, d=1.0 / jacobi_diagonal(op): d * v, rhs, cfg)
        parts = DenseParts(problem, state)
        k8, rhs8 = parts.augmented_system()
        ref = dense_solve(np.atleast_2d(k8), np.atleast_1d(rhs8))
        rel = np.linalg.norm(cg.solution - ref) / max(np.linalg.norm(ref), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: PCG direction vs dense oracle on "
          f"{N_ORACLE_INSTANCES} QPs, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_block_row_equivalence(oracle_instances):
    t0 = time.perf_counter()
    worst = 0.0
    for problem, state in oracle_instances:
        parts = DenseParts(problem, state)
        k8, rhs8 = parts.augmented_system()
        k9, rhs9 = parts.doubly_augmented_system()
        x8 = dense_solve(np.atleast_2d(k8), np.atleast_1d(rhs8))
        x9 = dense_solve(np.atleast_2d(k9), np.atleast_1d(rhs9))
        rel = np.linalg.norm(x9 - x8) / max(np.linalg.norm(x8), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: reduced vs doubly augmented solutions, "
          f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_spd_property():
    t0 = time.perf_counter()
    probes_per_state = 50
    n_states = 20
    total = 0
    for seed in range(n_states):
        rng = np.random.default_rng(8100 + seed)
        problem = random_problem(rng)
        state = random_interior_state(rng, problem)
        op = build_operator(problem, state)
        for _ in range(probes_per_state):
            v = rng.standard_normal(op.dim)
            u = rng.standard_normal(op.dim)
            opv = apply_doubly_augmented(op, v)
            assert v @ opv > 0.0
            defect = abs(u @ opv - v @ apply_doubly_augmented(op, u))
            assert defect <= 1e-10 * (1.0 + abs(u @ opv))
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 1000
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: SPD + symmetry over {total} probes on "
          f"{n_states} states, {elapsed:.2f}s")


def test_criterion_4_full_newton_consistency(oracle_instances):
    t0 = time.perf_counter()
    worst = 0.0
    for problem, state in oracle_instances:
        op = build_operator(problem, state)
        res = compute_residuals(problem, state)
        parts = DenseParts(problem, state)
        k9, rhs9 = parts.doubly_augmented_system()
        sol = dense_solve(np.atleast_2d(k9), np.atleast_1d(rhs9))
        d = recover_directions(op, sol[:problem.n], sol[problem.n:], res,
                               centering_target(state))
        k_full, rhs_full = parts.full_system()
        rel = np.linalg.norm(k_full @ parts.direction_vector(d) - rhs_full) \
            / (1.0 + np.linalg.norm(rhs_full))
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 4: full-system residual of recovered directions, "
          f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_jacobi_correctness(oracle_instances):
    for problem, state in oracle_instances:
        op = build_operator(problem, state)
        diag = jacobi_diagonal(op)
        for j in range(op.dim):
            e = np.zeros(op.dim)
            e[j] = 1.0
            probe = apply_doubly_augmented(op, e)[j]
            assert diag[j] == pytest.approx(probe, rel=1e-12)
    d = np.array([3.0, 0.5, 11.0, 2.0])
    rhs = np.array([1.0, -2.0, 0.5, 4.0])
    res = pcg(lambda v: d * v, lambda v: v / d, rhs, PcgConfig(tol=1e-12))
    assert res.converged and res.iterations == 1
    print(f"\nPASS criterion 5: Jacobi diagonal equals probe diagonal on "
          f"{N_ORACLE_INSTANCES} instances; diagonal system solved in 1 CG iteration")


def test_criterion_6_analytic_qps(analytic_reports):
    t0 = time.perf_counter()
    expected = {"active_bound": [1.0], "interior_optimum": [2.0],
                "equality": [0.5, 0.5]}
    for name, (problem, report) in analytic_reports.items():
        assert report.status is SolveStatus.CONVERGED, name
        assert report.iterations <= 100, name
        np.testing.assert_allclose(report.x, expected[name], atol=1e-4,
                                   err_msg=name)
        res = compute_residuals(problem, report.state)
        primal, dual, _ = infeasibilities(res, report.state)
        assert primal <= 1e-5 and dual <= 1e-5, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: three analytic QPs converged "
          f"(primal/dual inf <= 1e-5), {elapsed:.2f}s")


def _a1a_path():
    env = os.environ.get("QPIPM_A1A")
    if env:
        return Path(env)
    return REPO_ROOT / "data" / "a1a"


def test_criterion_7_a1a_reproduction():
    path = _a1a_path()
    if not path.exists():
        pytest.skip(f"a1a dataset not found at {path}; run scripts/fetch_a1a.py "
                    "(needs network access)")
    t0 = time.perf_counter()
    data = parse_libsvm(path.read_bytes())
    assert len(data) == 1605
    problem = build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
    assert problem.n == 1605
    assert problem.m_eq == 1
    finite_bounds = int(np.isfinite(problem.var_bounds.lower).sum()
                        + np.isfinite(problem.var_bounds.upper).sum())
    assert finite_bounds == 3210
    report = solve(problem, IpmConfig())
    elapsed = time.perf_counter() - t0
    assert report.status is SolveStatus.CONVERGED
    assert elapsed < 120.0
    cg = [t.cg_iters for t in report.trace]
    late = cg[int(0.75 * len(cg)):]
    early = cg[:int(0.5 * len(cg))]
    assert max(late) >= 2.0 * np.median(early)
    print(f"\nPASS criterion 7: a1a dual (1605 vars, 1 eq, 3210 bounds) "
          f"converged in {report.iterations} iterations, {elapsed:.1f}s; "
          f"late-stage CG max {max(late)} vs early median {np.median(early):.0f}")


def test_criterion_7_supplement_synthetic_a1a_scale():
    """Pipeline check at a1a dimensions with generated data.

    Not a substitute for criterion 7 (which needs the real file); it exercises
    the same code path and the Table-1 dimension bookkeeping.
    """
    rng = np.random.default_rng(90210)
    n, d = 1605, 119
    cols, labels = [], []
    for _ in range(n):
        y = 1 if rng.random() < 0.25 else -1
        pool = d // 2 if y > 0 else d
        cols.append(np.sort(rng.choice(pool, 14, replace=False)))
        labels.append(y)
    samples = sp.csr_matrix((np.ones(14 * n), np.concatenate(cols),
                             np.arange(0, 14 * n + 1, 14)), shape=(n, d))
    data = SvmDataset(samples, np.array(labels, dtype=float))
    problem = build_svm_dual(data, SvmConfig(sigma=1.0, c=1.0))
    assert problem.n == 1605 and problem.m_eq == 1
    assert int(np.isfinite(problem.var_bounds.lower).sum()
               + np.isfinite(problem.var_bounds.upper).sum()) == 3210
    report = solve(problem)
    assert report.status is SolveStatus.CONVERGED
    print(f"\nINFO criterion 7 supplement: synthetic 1605-sample dual converged "
          f"in {report.iterations} iterations")


def test_criterion_8_trace_pattern(analytic_reports):
    for name, (problem, report) in analytic_reports.items():
        mus = [t.mu for t in report.trace]
        reduction_events = [i for i in range(1, len(mus)) if mus[i] < mus[i - 1]]
        values = np.array([[t.mu, t.primal_inf, t.dual_inf, t.compl_inf,
                            t.cg_resid, t.alpha_x, t.alpha_lam]
                           for t in report.trace])
        assert np.all(np.isfinite(values)), name
        assert report.trace[-1].compl_inf <= 1e-4, name
        print(f"\n  {name}: mu reductions at iterations {reduction_events}")
    print("PASS criterion 8: traces finite, final complementarity <= 1e-4, "
          "mu-reduction events logged")


def test_criterion_9_bfgs_stress():
    n, k, n_bounded = 5000, 20, 500
    rng = np.random.default_rng(424242)
    hessian = QuasiNewtonHessian(
        rng.uniform(0.5, 2.0, n),
        0.1 * rng.standard_normal((n, k)),
        rng.uniform(0.1, 1.0, k))
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    bounded = rng.choice(n, n_bounded, replace=False)
    lo[bounded] = -1.0
    hi[bounded] = 1.0
    problem = box_qp(hessian, rng.standard_normal(n), lo, hi)

    # one n-by-n float64 array is 200 MB: a peak far below it rules out dense
    # materialization under any name
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        report = solve(problem)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, f"solve() peaked at {peak / 2**20:.1f} MB"
    assert report.status is SolveStatus.CONVERGED
    assert elapsed < 60.0
    print(f"\nPASS criterion 9: BFGS stress QP (n={n}, k={k}, "
          f"{n_bounded} bound pairs) converged matrix-free in "
          f"{report.iterations} iterations, {elapsed:.1f}s")
