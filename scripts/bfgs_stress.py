#!/usr/bin/env python3
"""Large quasi-Newton box QP solved fully matrix-free; prints a timing summary.

Usage: python scripts/bfgs_stress.py [--n N] [--rank K] [--bounded B] [--seed S]
"""

import argparse
import time

import numpy as np

from qpipm.ipm import solve
from qpipm.model import QuasiNewtonHessian, box_qp


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--rank", type=int, default=20)
    ap.add_argument("--bounded", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.n < 1:
        ap.error("--n must be at least 1")
    if args.rank < 0:
        ap.error("--rank must be nonnegative")
    if not 0 <= args.bounded <= args.n:
        ap.error("--bounded must lie in [0, n]")

    rng = np.random.default_rng(args.seed)
    hessian = QuasiNewtonHessian(
        rng.uniform(0.5, 2.0, args.n),
        0.1 * rng.standard_normal((args.n, args.rank)),
        rng.uniform(0.1, 1.0, args.rank))
    lo = np.full(args.n, -np.inf)
    hi = np.full(args.n, np.inf)
    idx = rng.choice(args.n, args.bounded, replace=False)
    lo[idx], hi[idx] = -1.0, 1.0
    problem = box_qp(hessian, rng.standard_normal(args.n), lo, hi)

    t0 = time.perf_counter()
    report = solve(problem)
    elapsed = time.perf_counter() - t0
    total_cg = sum(t.cg_iters for t in report.trace)
    print(f"status={report.status.value} iterations={report.iterations} "
          f"total_cg={total_cg} objective={report.objective:.6e} "
          f"time={elapsed:.2f}s")
    return 0 if report.status.value == "converged" else 2


if __name__ == "__main__":
    raise SystemExit(main())
