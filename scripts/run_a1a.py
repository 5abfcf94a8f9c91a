#!/usr/bin/env python3
"""Train the SVM dual on a1a and write the per-iteration trace CSV.

Usage: python scripts/run_a1a.py [--sigma S] [--c C] [--trace PATH]
Reads the dataset from $QPIPM_A1A if set, else from data/a1a (see
scripts/fetch_a1a.py).
"""

import argparse
import os
from pathlib import Path

from qpipm.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--trace", default=str(ROOT / "a1a_trace.csv"))
    ap.add_argument("--solution", default=str(ROOT / "a1a_model.json"))
    args = ap.parse_args()
    data = Path(os.environ.get("QPIPM_A1A") or ROOT / "data" / "a1a")
    if not data.exists():
        print(f"dataset missing at {data}; run scripts/fetch_a1a.py first")
        return 1
    return cli_main(["solve-svm", str(data),
                     "--sigma", str(args.sigma), "--c", str(args.c),
                     "--trace", args.trace, "--solution", args.solution,
                     "--verbose"])


if __name__ == "__main__":
    raise SystemExit(main())
