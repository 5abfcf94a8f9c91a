"""The outer interior-point loop: PCG-driven Newton steps with a ratio test
line search and a residual-triggered barrier schedule."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .kkt import (FullDirection, IterateState, KktOperator,
                  Residuals, apply_doubly_augmented, assemble_rhs,
                  build_operator, compute_residuals, preconditioner,
                  recover_directions)
# perfbench's layer trace wraps this name in ipm's namespace
from .kkt import jacobi_diagonal  # noqa: F401
from .linalg import PcgBreakdownError, PcgConfig, PcgResult, pcg
from .model import QpProblem


class InteriorityError(RuntimeError):
    """A step left the strictly positive region; indicates gamma >= 1 or a corrupted direction."""


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration_limit"
    LINEAR_SOLVER_FAILURE = "linear_solver_failure"


@dataclass(frozen=True)
class IpmConfig:
    gamma: float = 0.99
    mu_init: float = 1.0
    mu_tol: float = 1e-6
    mu_shrink: float = 10.0
    max_iters: int = 200
    pcg: PcgConfig = field(default_factory=PcgConfig)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not (self.mu_init > 0 and self.mu_tol > 0):  # NaN fails too
            raise ValueError("barrier parameters must be positive")
        if not self.mu_shrink > 1.0:
            raise ValueError("mu_shrink must exceed 1")
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


def initialize(problem: QpProblem, cfg: IpmConfig) -> IterateState:
    """Starting point: box midpoints, unit multipliers, slacks max(1, |g(x) - g0|)."""
    lo, hi = problem.var_bounds.lower, problem.var_bounds.upper
    x = np.zeros(problem.n)
    both = np.isfinite(lo) & np.isfinite(hi)
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x[both] = 0.5 * (lo[both] + hi[both])
    x[only_lo] = lo[only_lo] + 1.0
    x[only_hi] = hi[only_hi] - 1.0

    bmap = problem.layout
    gap = bmap.g(x, bmap.b @ x) - bmap.g0
    return IterateState(x=x, lam_e=np.zeros(problem.m_eq),
                        s=np.maximum(1.0, np.abs(gap)), lam=np.ones(len(gap)),
                        mu=cfg.mu_init, splits=bmap.splits)


def _ratio(values: np.ndarray, deltas: np.ndarray) -> float:
    neg = deltas < 0
    return float(np.min(-values[neg] / deltas[neg], initial=np.inf))


def step_lengths(state: IterateState, direction: FullDirection,
                 gamma: float) -> tuple[float, float]:
    """Largest steps in [0, 1] keeping slacks and inequality multipliers positive.

    lam_e is excluded: its sign is unrestricted.
    """
    return (min(1.0, gamma * _ratio(state.s, direction.ds)),
            min(1.0, gamma * _ratio(state.lam, direction.d_lam)))


def apply_step(state: IterateState, direction: FullDirection,
               alpha_x: float, alpha_lam: float) -> IterateState:
    """Move x and slacks by alpha_x, all multipliers by alpha_lam."""
    new = replace(
        state,
        x=state.x + alpha_x * direction.dx,
        lam_e=state.lam_e + alpha_lam * direction.d_lam_e,
        s=state.s + alpha_x * direction.ds,
        lam=state.lam + alpha_lam * direction.d_lam)
    if new.min_interior() <= 0.0:
        raise InteriorityError("step left the strict interior")
    return new


def infeasibilities(res: Residuals) -> tuple[float, float, float]:
    """Euclidean norms of the primal, dual and complementarity blocks."""
    return (float(np.linalg.norm(res.r_p)), float(np.linalg.norm(res.r_H)),
            float(np.linalg.norm(res.r_c)))


def update_barrier(mu: float, residual_norm: float,
                   cfg: IpmConfig) -> tuple[float, bool]:
    """Shrink mu when the full residual norm drops below it; terminate below mu_tol."""
    if residual_norm < mu:
        if mu < cfg.mu_tol:
            return mu, True
        return mu / cfg.mu_shrink, False
    return mu, False


DirectionSolver = Callable[[KktOperator, np.ndarray, PcgConfig], PcgResult]


def _pcg_direction(op: KktOperator, rhs: np.ndarray, cfg: PcgConfig) -> PcgResult:
    return pcg(lambda v: apply_doubly_augmented(op, v), preconditioner(op),
               rhs, cfg)


def solve(problem: QpProblem, cfg: IpmConfig | None = None,
          direction_solver: DirectionSolver = _pcg_direction,
          verbose: bool = False) -> SolveReport:
    """Run the interior-point loop to convergence or an iteration limit.

    direction_solver is a hook for substituting the linear solver (used by
    tests to compare PCG against a dense factorization).
    """
    if cfg is None:
        cfg = IpmConfig()
    t0 = time.perf_counter()
    state = initialize(problem, cfg)
    res = compute_residuals(problem, state)
    trace: list[TraceRecord] = []
    status = SolveStatus.ITERATION_LIMIT

    for it in range(1, cfg.max_iters + 1):
        op = build_operator(problem, state)
        rhs = assemble_rhs(op, res, state)
        try:
            cg = direction_solver(op, rhs, cfg.pcg)
        except PcgBreakdownError as exc:
            cg = exc.result
        # a breakdown before the first CG step leaves the zero start, which
        # cannot move the iterate
        no_step = cg.iterations == 0 and not cg.converged
        if no_step or not np.all(np.isfinite(cg.solution)):
            status = SolveStatus.LINEAR_SOLVER_FAILURE
            break
        direction = recover_directions(op, *op.split(cg.solution), res, state)

        alpha_x, alpha_lam = step_lengths(state, direction, cfg.gamma)
        state = apply_step(state, direction, alpha_x, alpha_lam)
        res = compute_residuals(problem, state)
        primal, dual, compl = infeasibilities(res)
        trace.append(TraceRecord(
            iter=it, mu=state.mu, primal_inf=primal, dual_inf=dual,
            compl_inf=compl, cg_iters=cg.iterations,
            cg_resid=cg.final_residual_norm,
            alpha_x=alpha_x, alpha_lam=alpha_lam,
            cg_converged=bool(cg.converged)))
        if verbose:
            print(f"iter {it:4d}  mu {state.mu:9.3e}  primal {primal:9.3e}  "
                  f"dual {dual:9.3e}  compl {compl:9.3e}  cg {cg.iterations:5d} "
                  f"{'converged' if cg.converged else 'NOT converged'}  "
                  f"alpha ({alpha_x:.3f}, {alpha_lam:.3f})")

        new_mu, terminate = update_barrier(state.mu, res.norm(), cfg)
        if terminate:
            status = SolveStatus.CONVERGED
            break
        if new_mu != state.mu:
            state.mu = new_mu
            res = compute_residuals(problem, state)

    return SolveReport(
        x=state.x.copy(), state=state, status=status, trace=trace,
        objective=problem.objective(state.x), iterations=len(trace),
        wall_time=time.perf_counter() - t0)
