#!/usr/bin/env python3
"""Benchmark harness for qpipm: sparse_qp, bfgs_box and svm_dual.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The harness writes the workload's
input files from the seed into .perfbench_work/, then starts a fresh worker
process (perfbench/worker.py) with the BLAS thread count fixed. The worker is
a closed loop with one caller: it repeats setup -> solve -> extract, one solve
at a time, for S seconds (at least three passes), and checks every result.

--trace 0 prints the end-to-end metrics (medians over the passes).
--trace 1 runs one untraced pass and then one traced pass, each in its own
process, and prints the per-layer metrics: self time and call counts per
wrapped function, PCG counts, bare-kernel floor ratios and the trace overhead.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics. The metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Two threads made bfgs_box four times slower on a 2-vCPU host and changed its
# CG count; one thread never exceeds nproc.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(workload: str, inputs: Path, *mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), *mode]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qpipm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "git_commit": commit,
        "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(workload: str, inputs: Path, seconds: float):
    out = _worker(workload, inputs, "--seconds", str(seconds))
    reps = out["reps"]
    med = statistics.median
    metrics = {
        "setup_s": med(r["setup_s"] for r in reps),
        "solve_s": med(r["solve_s"] for r in reps),
        "total_s": med(r["setup_s"] + r["solve_s"] + r["extract_s"] for r in reps),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    for i, r in enumerate(reps):
        print(f"pass {i}: setup {r['setup_s']:.4f} s  solve {r['solve_s']:.4f} s  "
              f"extract {r['extract_s']:.4f} s  status {r['status']}  "
              f"ipm {r['ipm_iterations']}  pcg {r['pcg_iterations']}  "
              f"checks {json.dumps(r['checks'])}")
        for failure in r["failures"]:
            print(f"pass {i} FAILED: {failure}")
    print(f"extract_s {med(r['extract_s'] for r in reps)!r} s "
          f"(per_layer run.extract_s in the traced run)")
    if workload == "svm_dual":
        rate = reps[0]["predict_count"] / reps[0]["predict_s"]
        print(f"predict_per_s {rate!r} 1/s (first pass; "
              f"per_layer run.predict_per_s in the traced run)")
    failed = sum(bool(r["failures"]) for r in reps)
    print(f"failed_fraction {failed / len(reps):.4f} ({failed} of {len(reps)} passes)")
    return metrics, len(reps), failed


def per_layer(workload: str, inputs: Path):
    from layertrace import TARGETS

    plain = _worker(workload, inputs, "--single")["reps"][0]
    rep = _worker(workload, inputs, "--traced")["reps"][0]
    tr = rep["trace"]
    layers, pcg = tr["layers"], tr["pcg"]

    metrics: dict[str, float] = {}
    for name in {t[2] for t in TARGETS}:
        agg = layers.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = agg["calls"]
        metrics[f"{name}.self_s"] = agg["self_s"]
    b_self = metrics["kkt.apply_b.self_s"] + metrics["kkt.apply_bt.self_s"]
    metrics.update({
        "ipm.iterations": rep["ipm_iterations"],
        "linalg.pcg.iterations": pcg["iterations"],
        "linalg.pcg.capped": pcg["capped"],
        "linalg.pcg.breakdowns": pcg["breakdowns"],
        "linalg.pcg.converged_fraction": pcg["converged"] / max(pcg["calls"], 1),
        "kkt.b_products.floor_ratio": b_self / tr["b_floor_s"] if tr["b_floor_s"] else 0.0,
        "model.hessian_apply.floor_ratio": (metrics["model.hessian_apply.self_s"]
                                            / tr["hessian_floor_s"]
                                            if tr["hessian_floor_s"] else 0.0),
        "run.extract_s": plain["extract_s"],
        "run.predict_per_s": (plain["predict_count"] / plain["predict_s"]
                              if "predict_s" in plain else 0.0),
        "trace.overhead": rep["solve_s"] / plain["solve_s"] - 1.0,
    })

    problems = []
    for key in ("ipm_iterations", "pcg_iterations", "objective"):
        if plain[key] != rep[key]:
            problems.append(f"tracing changed {key}: {plain[key]} -> {rep[key]}")
    if pcg["iterations"] != rep["pcg_iterations"]:
        problems.append("pcg wrapper count differs from the solve trace")
    if abs(tr["self_sum_s"] - tr["solve_span_s"]) > 1e-6 * tr["solve_span_s"]:
        problems.append("self times under ipm.solve do not add up to the solve span")
    if not tr["wrappers_removed"]:
        problems.append("wrappers left installed after the traced pass")

    print(f"traced solve_s {rep['solve_s']:.4f} s (span {tr['solve_span_s']:.4f} s, "
          f"sum of self times {tr['self_sum_s']:.4f} s); untraced {plain['solve_s']:.4f} s")
    print(f"floors: B products {tr['b_floor_s']:.4f} s, Hessian {tr['hessian_floor_s']:.4f} s")
    for name in sorted(layers, key=lambda k: -layers[k]["self_s"]):
        agg = layers[name]
        print(f"layer {name:30s} calls {agg['calls']:8d}  self {agg['self_s']:9.4f} s  "
              f"total {agg['total_s']:9.4f} s")
    for target in tr["missing"]:
        print(f"not traced (no such attribute): {target}")
    problems += [f"traced pass: {f}" for f in rep["failures"]]
    for p in problems + [f"untraced pass: {f}" for f in plain["failures"]]:
        print(f"FAILED: {p}")
    return metrics, 2, int(bool(plain["failures"])) + int(bool(problems))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qpipm" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a qpipm source checkout (src/qpipm and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from inputs import write_inputs

    inputs = WORK / args.workload
    shutil.rmtree(inputs, ignore_errors=True)
    write_inputs(args.workload, inputs, args.seed)
    print("env " + json.dumps(environment(args.workload, args.seed)))

    if args.trace:
        measured, attempted, failed = per_layer(args.workload, inputs)
    else:
        measured, attempted, failed = end_to_end(args.workload, inputs, args.seconds)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
