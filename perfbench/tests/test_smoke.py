"""Smoke tests of the benchmark on tiny inputs (n <= 3).

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def tiny(workload, lib, seed=7):
    """A golden document made on the tiny inputs, and the inputs relabelled by seed."""
    specs = workloads.input_specs(workload, lib, size="tiny")
    plain = workloads.make_inputs(specs, None, lib)
    outputs = {
        i.spec["id"]: workloads.canonical(workload, workloads.call(workload, lib, i))
        for i in plain
    }
    golden = {"inputs": specs, "outputs": json.loads(json.dumps(outputs))}
    inputs = workloads.make_inputs(specs, seed, lib)
    assert all(i.matrix.n <= 3 for i in inputs)
    return golden, inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_matches_golden_after_relabelling(workload, lib):
    golden, inputs = tiny(workload, lib)
    res = run.timed_run(workload, lambda: (lib, golden, inputs), seconds=0.01)
    assert res["failed"] == 0
    assert res["attempted"] >= len(inputs)
    assert res["wall_s"] > 0
    assert len(res["setup_samples"]) == run.SETUP_REPEATS
    assert set(run.end_to_end_metrics(res)) == {
        m["name"] for m in SPEC["end_to_end"]
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_golden_is_reported_as_failure(workload, lib):
    golden, inputs = tiny(workload, lib)
    victim = inputs[-1].spec["id"]
    golden["outputs"][victim] = ["corrupted"]
    res = run.timed_run(workload, lambda: (lib, golden, inputs), seconds=0.01)
    assert res["failed"] >= 1
    traced = run.traced_run(workload, lib, golden, inputs)
    assert traced["failed"] == 2  # once untraced, once traced


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_and_unwraps(workload, lib):
    golden, inputs = tiny(workload, lib)
    before = tracing.bindings(lib)
    res = run.traced_run(workload, lib, golden, inputs)
    assert tracing.bindings(lib) == before
    assert res["failed"] == 0
    metrics = {k: v for k, (v, _) in res["metrics"].items()}
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    total = layers + metrics["trace.bookkeeping_s"] + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-6)


def test_wrappers_are_removed_when_the_block_raises(lib):
    before = tracing.bindings(lib)
    with pytest.raises(RuntimeError):
        with tracing.installed(lib, tracing.SpanRecorder()):
            assert tracing.bindings(lib) != before
            raise RuntimeError("boom")
    assert tracing.bindings(lib) == before


def test_self_times_subtract_children():
    rec = tracing.SpanRecorder()
    with rec.span("a"):
        with rec.span("b"):
            pass
    rec.end[1] = rec.start[1] + 2.0
    rec.end[0] = rec.start[0] + 5.0
    own = rec.self_times()
    assert own["b"] == pytest.approx(2.0)
    assert own["a"] == pytest.approx(3.0)


def test_rank_oracle():
    assert workloads.rank_q([[1, 2], [2, 4]]) == 1
    assert workloads.rank_q([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 3
    assert workloads.rank_q([]) == 0


def test_without_package_source_the_command_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "hodge_d12", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
