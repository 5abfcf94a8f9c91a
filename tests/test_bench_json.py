"""Smoke test of scripts/bench_json.py against a stub checkout whose
perfbench/run.py passes on one workload and crashes on the other."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAKE_RUN = '''
import argparse, json, sys
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
args = ap.parse_args()
if args.workload == "crashes":
    print("pass 0: setup 0.1 s")
    sys.stderr.write("Traceback (most recent call last):\\nRuntimeError: worker exited\\n")
    sys.exit(1)
print("env " + json.dumps({"workload": args.workload, "seed": int(args.seed)}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "ipm.iterations": {"value": 9, "unit": "count"},
    "linalg.pcg.iterations": {"value": 0, "unit": "count"},
    "trace": {"value": int(args.trace), "unit": "flag"}}}))
'''


def _bench_json():
    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "scripts" / "bench_json.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failing_workload_stays_in_the_results(tmp_path, monkeypatch, capsys):
    checkout, out = tmp_path / "checkout", tmp_path / "out"
    (checkout / "perfbench").mkdir(parents=True)
    out.mkdir()
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "passes"}, {"name": "crashes"}]}))
    bench_json = _bench_json()
    monkeypatch.setattr(bench_json, "ROOT", out)

    assert bench_json.main(["--root", str(checkout), "--label", "smoke", "--seed", "4"]) == 1

    result = json.loads((out / "BENCH_smoke.json").read_text())
    assert result["seed"] == 4 and result["seconds"] == 1
    passes, crashes = result["workloads"]["passes"], result["workloads"]["crashes"]
    for trace, run in enumerate((passes["end_to_end"], passes["per_layer"])):
        assert run["correct"] and run["returncode"] == 0 and run["failures"] == []
        assert run["env"] == {"workload": "passes", "seed": 4}
        assert run["metrics"]["trace"]["value"] == trace
    for run in crashes.values():
        assert not run["correct"] and run["returncode"] == 1
        assert run["metrics"] == {} and run["env"] is None
        assert run["failures"] == ["exit code 1"]
        assert run["stderr_tail"][-1] == "RuntimeError: worker exited"
    printed = capsys.readouterr().out
    assert "passes: ipm 9  cg 0" in printed
    assert "crashes: FAILED" in printed
