"""The outer interior-point loop: Mehrotra predictor-corrector Newton steps,
both solved by PCG with one operator and one preconditioner per iteration,
a ratio test line search and a scale-aware stopping test."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .kkt import (FullDirection, IterateState, KktOperator, Residuals,
                  apply_doubly_augmented, assemble_rhs, build_operator,
                  compute_residuals, preconditioner, recover_directions)
# solve() never calls this name: it stays only so that perfbench's
# test_wrappers_are_removed resolves layertrace.TARGETS, which wraps it here
from .kkt import jacobi_diagonal  # noqa: F401
from .linalg import PcgBreakdownError, PcgConfig, PcgResult, pcg
from .model import QpProblem


class InteriorityError(RuntimeError):
    """A step left the strictly positive region; indicates a corrupted direction."""


class _LinearSolverFailure(RuntimeError):
    """PCG broke down before its first step or returned a non-finite solution."""


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration_limit"
    LINEAR_SOLVER_FAILURE = "linear_solver_failure"
    # a non-finite residual, right-hand side or direction, or a step that
    # left the interior
    NUMERICAL_FAILURE = "numerical_failure"


# the ratio test's fraction to the boundary (gamma of ``step_lengths``)
FRACTION_TO_BOUNDARY = 0.99


@dataclass(frozen=True)
class IpmConfig:
    """mu_tol bounds the three measures of ``infeasibilities`` at
    termination (see ``_converged``); max_iters caps the IPM iterations."""

    mu_tol: float = 1e-6
    max_iters: int = 200
    pcg: PcgConfig = field(default_factory=PcgConfig)

    def __post_init__(self):
        if not 0 < self.mu_tol < np.inf:  # NaN fails too
            raise ValueError("mu_tol must be finite and positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    mu: float
    primal_inf: float
    dual_inf: float
    compl_inf: float
    cg_iters: int
    cg_resid: float
    alpha_x: float
    alpha_lam: float
    # False when PCG stopped at its cap or broke down; None when not recorded
    # (the paper-format trace CSV has no column for it)
    cg_converged: bool | None = None


@dataclass(frozen=True)
class SolveReport:
    x: np.ndarray
    state: IterateState
    status: SolveStatus
    trace: list[TraceRecord]
    objective: float
    iterations: int
    wall_time: float


def _barrier_mu(s: np.ndarray, lam: np.ndarray, mu_tol: float) -> float:
    """s'lam/m over the m inequalities, but not below mu_tol/10."""
    return max(lam @ s / len(s) if len(s) else 0.0, 0.1 * mu_tol)


def initialize(problem: QpProblem, cfg: IpmConfig) -> IterateState:
    """Starting point: box midpoints, unit multipliers, slacks max(1, |g(x) - g0|)
    (inf if that overflows: ``compute_residuals`` then fails), mu by ``_barrier_mu``."""
    lo, hi = problem.var_bounds.lower, problem.var_bounds.upper
    x = np.zeros(problem.n)
    both = np.isfinite(lo) & np.isfinite(hi)
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x[both] = 0.5 * lo[both] + 0.5 * hi[both]  # lo + hi may overflow
    x[only_lo] = lo[only_lo] + 1.0
    x[only_hi] = hi[only_hi] - 1.0

    bmap = problem.layout
    with np.errstate(over="ignore"):
        gap = bmap.g(x, bmap.b @ x) - bmap.g0
    s, lam = np.maximum(1.0, np.abs(gap)), np.ones(len(gap))
    return IterateState(x=x, lam_e=np.zeros(problem.m_eq), s=s, lam=lam,
                        mu=_barrier_mu(s, lam, cfg.mu_tol), splits=bmap.splits)


def _ratio(values: np.ndarray, deltas: np.ndarray) -> float:
    neg = deltas < 0
    # a ratio that overflows (a subnormal delta) is inf: it limits no step
    with np.errstate(over="ignore"):
        return float(np.min(-values[neg] / deltas[neg], initial=np.inf))


def step_lengths(state: IterateState, direction: FullDirection,
                 gamma: float) -> tuple[float, float]:
    """Largest steps in [0, 1] keeping slacks and inequality multipliers positive.

    lam_e is excluded: its sign is unrestricted.
    """
    return (min(1.0, gamma * _ratio(state.s, direction.ds)),
            min(1.0, gamma * _ratio(state.lam, direction.d_lam)))


def apply_step(state: IterateState, direction: FullDirection,
               alpha_x: float, alpha_lam: float, mu_tol: float) -> IterateState:
    """The iterate after moving x and slacks by alpha_x and all multipliers
    by alpha_lam, its mu by ``_barrier_mu``."""
    s = state.s + alpha_x * direction.ds
    lam = state.lam + alpha_lam * direction.d_lam
    new = replace(
        state,
        x=state.x + alpha_x * direction.dx,
        lam_e=state.lam_e + alpha_lam * direction.d_lam_e,
        s=s, lam=lam, mu=_barrier_mu(s, lam, mu_tol))
    if new.min_interior() <= 0.0:
        raise InteriorityError("step left the strict interior")
    return new


def infeasibilities(res: Residuals, state: IterateState) -> tuple[float, float, float]:
    """The measures the stopping test bounds: primal ||(r_e, r_p)||_2, dual
    ||r_H||_2 and complementarity ||s * lam||_2."""
    return (float(np.hypot(np.linalg.norm(res.r_e), np.linalg.norm(res.r_p))),
            float(np.linalg.norm(res.r_H)), float(np.linalg.norm(state.lam * state.s)))


def update_barrier(state: IterateState, affine: FullDirection, cfg: IpmConfig) -> float:
    """Mehrotra's corrector target sigma mu, sigma = (mu_aff/mu)^3 in [0, 1].

    mu = s'lam/m over the m inequalities and mu_aff is the same after the
    largest steps along the affine direction that keep s and lam
    nonnegative; 0 when m = 0. The target is at least mu_tol / (10 sqrt(m)):
    pairs s_i lam_i at that value already pass the stopping test's
    ||s * lam||_2 <= mu_tol, and a lower target only makes the next Newton
    systems harder for PCG (without the floor, PCG hit its cap and the solve
    its iteration limit on the n=400 stand-in H = M'M + 0.1I of the tests).
    """
    m = len(state.s)
    if not m:
        return 0.0
    alpha_x, alpha_lam = step_lengths(state, affine, 1.0)
    mu = state.s @ state.lam / m
    mu_aff = (state.s + alpha_x * affine.ds) @ (state.lam + alpha_lam * affine.d_lam) / m
    return max(mu * min(1.0, max(0.0, mu_aff / mu)) ** 3, 0.1 * cfg.mu_tol / np.sqrt(m))


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v), initial=0.0))


def _converged(problem: QpProblem, measures: tuple[float, float, float],
               tol: float) -> bool:
    """Scale-aware stopping test on the measures of ``infeasibilities``: the
    primal one relative to 1 + max(||g0||_inf, ||b||_inf), the dual one
    relative to 1 + ||p||_inf, and the complementarity one absolute, each at
    most tol."""
    primal, dual, compl = measures
    primal_scale = 1.0 + max(_max_abs(problem.layout.g0), _max_abs(problem.b))
    return (primal <= tol * primal_scale
            and dual <= tol * (1.0 + _max_abs(problem.p)) and compl <= tol)


LinearMap = Callable[[np.ndarray], np.ndarray]
DirectionSolver = Callable[[KktOperator, np.ndarray, PcgConfig, LinearMap,
                            np.ndarray | None], PcgResult]


def _pcg_direction(op: KktOperator, rhs: np.ndarray, cfg: PcgConfig,
                   prec: LinearMap, x0: np.ndarray | None) -> PcgResult:
    return pcg(lambda v: apply_doubly_augmented(op, v), prec, rhs, cfg, x0=x0)


def _newton_direction(op: KktOperator, prec: LinearMap, res: Residuals,
                      r_c: np.ndarray, cfg: PcgConfig,
                      direction_solver: DirectionSolver,
                      x0: np.ndarray | None) -> tuple[FullDirection, PcgResult]:
    """One Newton direction at the operator's iterate for ``res`` and r_c
    (``kkt.assemble_rhs``); _LinearSolverFailure when PCG broke down before
    its first step or returned a non-finite solution.

    PCG starts at M^{-1} rhs = prec(rhs) when B is empty (op.m == 0, only
    variable bounds), otherwise at ``x0``. With B empty and a Hessian that is
    a diagonal plus its low-rank term, M is the system itself
    (``kkt.preconditioner``): PCG's explicit residual test then accepts that
    start with 0 CG iterations, and if it does not, PCG iterates from there."""
    rhs = assemble_rhs(op, res, r_c)
    if op.m == 0:
        x0 = prec(rhs)
    try:
        cg = direction_solver(op, rhs, cfg, prec, x0)
    except PcgBreakdownError as exc:
        cg = exc.result
    # a breakdown before the first CG step leaves the start, which carries
    # no information about this system
    if (cg.iterations == 0 and not cg.converged) or not np.all(np.isfinite(cg.solution)):
        raise _LinearSolverFailure
    return recover_directions(op, *op.split(cg.solution), res, r_c), cg


def solve(problem: QpProblem, cfg: IpmConfig | None = None,
          direction_solver: DirectionSolver = _pcg_direction,
          verbose: bool = False) -> SolveReport:
    """Run Mehrotra's predictor-corrector to convergence or an iteration limit.

    Each iteration builds one operator and one preconditioner and solves
    twice with them. With mu = s'lam/m (m inequalities), the predictor
    solves with complementarity block r_c = lam * s; its largest steps to
    the boundary give mu_aff, and sigma = (mu_aff/mu)^3. The corrector solves with
    r_c = lam * s + ds_aff * dlam_aff - sigma mu, its PCG started from the
    predictor's solution (both start at M^{-1} rhs when B is empty, see
    ``_newton_direction``). The iterate then moves along the
    corrector with the ratio test; with m = 0, sigma = 0.

    Iterates are immutable: ``initialize`` and ``apply_step`` build each one
    with its ``state.mu``, s'lam/m but not below mu_tol/10 (``_barrier_mu``),
    and a Newton system reads the iterate only through its operator
    (``kkt.KktOperator.state``). mu enters the Newton system only as the
    equality rows' regularization D = mu on the rows of C; r_e is C x - b,
    so inconsistent equality rows end at the iteration limit. Without the
    floor, the seed-1 svm_dual benchmark input took 7 IPM iterations and 40
    CG instead of 6 and 29. The trace's mu is the corrector's target sigma
    mu; its cg_iters sums both solves.

    The solve converges by ``_converged``; the trace records the three
    measures of ``infeasibilities`` that it bounds. A failed PCG solve (see
    ``_newton_direction``) ends it as linear_solver_failure. A non-finite
    residual, right-hand side or direction (numpy floating-point errors
    raise inside the loop) or a step out of the interior ends it as
    numerical_failure, with the last iterate whose residuals were finite.
    The objective is inf or NaN when it overflows.

    direction_solver(op, rhs, pcg_cfg, prec, x0) is a hook for substituting
    the linear solver (used by tests to compare PCG against a dense
    factorization). It is called twice per iteration, the predictor first,
    with the iteration's operator, which holds the iterate (``op.state``);
    prec is the iteration's shared preconditioner v -> M^{-1} v
    (``kkt.preconditioner``) and x0 the start: prec(rhs) for both solves
    when B is empty (op.m == 0), otherwise None for the predictor and the
    predictor's solution for the corrector.
    """
    if cfg is None:
        cfg = IpmConfig()
    t0 = time.perf_counter()
    trace: list[TraceRecord] = []
    status = SolveStatus.ITERATION_LIMIT
    state = initialize(problem, cfg)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            res = compute_residuals(problem, state)
            for it in range(1, cfg.max_iters + 1):
                op = build_operator(problem, state)
                prec = preconditioner(op)
                gap = state.lam * state.s
                affine, cg_aff = _newton_direction(
                    op, prec, res, gap, cfg.pcg, direction_solver, None)
                sigma_mu = update_barrier(state, affine, cfg)
                direction, cg_corr = _newton_direction(
                    op, prec, res, gap + affine.ds * affine.d_lam - sigma_mu,
                    cfg.pcg, direction_solver, cg_aff.solution)

                alpha_x, alpha_lam = step_lengths(state, direction, FRACTION_TO_BOUNDARY)
                new = apply_step(state, direction, alpha_x, alpha_lam, cfg.mu_tol)
                res, state = compute_residuals(problem, new), new
                measures = infeasibilities(res, state)
                primal, dual, compl = measures
                cg_iters = cg_aff.iterations + cg_corr.iterations
                cg_converged = bool(cg_aff.converged and cg_corr.converged)
                trace.append(TraceRecord(
                    iter=it, mu=sigma_mu, primal_inf=primal, dual_inf=dual,
                    compl_inf=compl, cg_iters=cg_iters,
                    cg_resid=cg_corr.final_residual_norm,
                    alpha_x=alpha_x, alpha_lam=alpha_lam,
                    cg_converged=cg_converged))
                if verbose:
                    print(f"iter {it:4d}  mu {sigma_mu:9.3e}  primal {primal:9.3e}  "
                          f"dual {dual:9.3e}  compl {compl:9.3e}  cg {cg_iters:5d} "
                          f"{'converged' if cg_converged else 'NOT converged'}  "
                          f"alpha ({alpha_x:.3f}, {alpha_lam:.3f})")
                if _converged(problem, measures, cfg.mu_tol):
                    status = SolveStatus.CONVERGED
                    break
        except _LinearSolverFailure:
            status = SolveStatus.LINEAR_SOLVER_FAILURE
        except (FloatingPointError, InteriorityError):
            status = SolveStatus.NUMERICAL_FAILURE

    with np.errstate(over="ignore", invalid="ignore"):
        objective = problem.objective(state.x)
    return SolveReport(
        x=state.x.copy(), state=state, status=status, trace=trace,
        objective=objective, iterations=len(trace),
        wall_time=time.perf_counter() - t0)
