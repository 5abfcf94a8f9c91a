"""Self-test of the benchmark at reduced sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import importlib

import pytest

import inputs
import layertrace
import worker

SCALE = {"sparse_qp": 0.05, "bfgs_box": 0.005, "svm_dual": 0.05}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs.write_inputs(workload, tmp_path / name, seed, SCALE[workload])
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tracing_does_not_change_results(workload, tmp_path):
    inputs.write_inputs(workload, tmp_path, 3, SCALE[workload])
    ref = worker.load_reference(workload, tmp_path)
    heldout = None
    if workload == "svm_dual":
        heldout = worker.svm.parse_libsvm((tmp_path / "heldout.libsvm").read_bytes())

    plain = worker.run_once(workload, tmp_path, ref, heldout, repeat=False)
    traced = worker.traced_once(workload, tmp_path, ref, heldout, tmp_path / "spans.jsonl")

    assert plain["status"] == "converged"
    for key in ("ipm_iterations", "pcg_iterations", "objective"):
        assert traced[key] == plain[key], key
    tr = traced["trace"]
    assert tr["pcg"]["iterations"] == plain["pcg_iterations"]
    assert tr["layers"]["ipm.solve"]["calls"] == 1
    assert tr["self_sum_s"] == pytest.approx(tr["solve_span_s"], rel=1e-9)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_wrappers_are_removed():
    originals = {(path, attr): layertrace._owner(path).__dict__[attr]
                 for path, attr, _ in layertrace.TARGETS}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert all(layertrace._owner(path).__dict__[attr] is not fn
                   for (path, attr), fn in originals.items())
    finally:
        tracer.remove()
    assert not tracer.installed()
    for (path, attr), fn in originals.items():
        assert layertrace._owner(path).__dict__[attr] is fn, f"{path}.{attr}"
    # the public name re-exported by the package is the same untouched object
    assert importlib.import_module("qpipm").solve is originals[("qpipm.ipm", "solve")]
