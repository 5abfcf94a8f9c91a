#!/usr/bin/env python3
"""Run a checkout's benchmark on every workload and keep the results on disk.

Runs ``DIR/perfbench/run.py`` once with ``--trace 0`` (end-to-end metrics)
and once with ``--trace 1`` (per-layer metrics, IPM and CG counts) for each
workload that ``DIR/BENCHMARK.json`` lists, and writes the JSON line each run
prints last, with its ``env`` line, to ``BENCH_<label>.json`` at the root of
this repository.

Usage: python scripts/bench_json.py --root DIR --label L [--seed 1] [--seconds S]

``--seconds`` defaults to the checkout's ``run_seconds``. ``DIR`` is a source
checkout (this repository's root by default); the runs use its own
``src/``. A workload whose run fails stays in the file, marked
``"correct": false`` with its exit code and the tail of its stderr; the
script then exits 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The run's last JSON line with its env line, exit code and failures.

    A run that exits nonzero or prints no JSON line stays in the results:
    ``correct`` false, no metrics, and the tail of its stderr."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    env = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    result["env"] = env[0] if env else None
    result["returncode"] = proc.returncode
    # the lines that name a failed pass or check, so a failure is visible here
    result["failures"] = [line for line in lines if "FAILED" in line]
    if proc.returncode:
        result["correct"] = False
        result["failures"].append(f"exit code {proc.returncode}")
        result["stderr_tail"] = proc.stderr.splitlines()[-20:]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=ROOT)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)

    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    out = {"label": args.label, "seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"end_to_end": run(root, workload, args.seed, seconds, 0),
                "per_layer": run(root, workload, args.seed, seconds, 1)}
        out["workloads"][workload] = runs
        if all(r["correct"] for r in runs.values()):
            layer = runs["per_layer"]["metrics"]
            print(f"{workload}: ipm {layer['ipm.iterations']['value']}  "
                  f"cg {layer['linalg.pcg.iterations']['value']}", flush=True)
        else:
            failed = True
            print(f"{workload}: FAILED {[f for r in runs.values() for f in r['failures']]}",
                  flush=True)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
