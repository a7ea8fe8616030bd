"""Tests of the benchmark itself: python -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from relapprox import generators, harness, sampling  # noqa: E402
from relapprox.sampling import WITH, WITHOUT, ApproxParams, load_constants  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SECOND_SEED = 2


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER.values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, label = run.tail([float(v) for v in range(1, 41)])
    assert value == 30.0 and label == "p75.0 of 40"
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_second_seed_passes_every_output_check(workload):
    proc = bench("--workload", workload, "--seed", str(SECOND_SEED), "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert "FAILED" not in proc.stdout


@pytest.mark.parametrize(
    "workload, idle",
    [
        ("mc-bernoulli", ("halving", "packing", "chaining", "set_system")),
        ("halving-implicit", ("bitops", "set_system", "packing")),
    ],
)
def test_traced_run_reports_layers_and_leaves_idle_layers_at_zero(workload, idle):
    proc = bench("--workload", workload, "--seed", str(SECOND_SEED), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(tracing.PER_LAYER)
    for layer in idle:
        assert metrics[f"{layer}.busy_s"] == 0.0, layer
    busy = "bitops.busy_s" if workload == "mc-bernoulli" else "halving.busy_s"
    assert metrics[busy] > 0


def test_pool_thread_spans_carry_their_cell_id():
    system = generators.random_system(64, 80, 0.2, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(
            "cell-7",
            harness.monte_carlo_failure,
            system, ApproxParams(0.2, 0.5, 0.2), 16, 6, 1,
        )
        tracer.run_op(
            "cell-8",
            harness.monte_carlo_failure,
            system, ApproxParams(0.2, 0.5, 0.2), 16, 6, 1, WITH, 2,
        )
    finally:
        tracer.uninstall()
    pool = [s for s in tracer.spans if s.thread != tracer.main_thread]
    assert pool and {s.op for s in pool} == {"cell-8"}
    assert tracing.pool_span_violations(tracer) == 0
    # every binding is restored
    assert harness.relative_error is sampling.relative_error
    assert not hasattr(sampling.relative_error, "__wrapped__")
    assert harness.ThreadPoolExecutor is not tracing._ContextPool


def test_self_time_excludes_overlapping_children():
    spans = [
        tracing.Span(1, 0, "op-0", "harness.monte_carlo_failure", "harness", 0.0, 10.0, 1, None),
        tracing.Span(2, 1, "op-0", "sampling.relative_error", "sampling", 1.0, 5.0, 2, None),
        tracing.Span(3, 1, "op-0", "sampling.relative_error", "sampling", 3.0, 7.0, 3, None),
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.self_time[1] == pytest.approx(4.0)
    assert ix.layer_self("sampling") == pytest.approx(8.0)


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_reference_matches_the_library_verifier(mode):
    system = generators.random_system(300, 200, 0.1, 5)
    for seed in range(5):
        sample = sampling.uniform_sample(system.n, 40, seed, mode=mode)
        report = sampling.relative_error(system, sample, 0.1)
        ref = workloads.reference_worst_ratio(system.masks, system.n, sample, 0.1)
        assert ref == report.worst_ratio


def test_checks_reject_wrong_outputs():
    mc = workloads.MonteCarlo(SECOND_SEED)
    cell = harness.CellResult(0.1, 0.5, 0.2, mc.T, mc.TRIALS, 3, mc.master_seed)
    assert mc.check(0, cell) == []
    assert mc.check(0, dataclasses.replace(cell, failures=mc.TRIALS + 1))
    assert mc.check(0, dataclasses.replace(cell, t=399))

    hv = workloads.Halving(SECOND_SEED)
    hv.setup()
    uncertified = sampling.Sample(hv.N, (0, 1, 2))
    assert hv.check(0, uncertified)


def test_degeneracy_guard_rejects_the_whole_ground_set():
    chain = workloads.Chain(SECOND_SEED, load_constants(os.path.join(ROOT, "constants.json")))
    chain.setup()
    out = chain.op(0)
    assert chain.check(0, out) == []
    whole = sampling.Sample.full(chain.random.n)
    problems = chain.check(0, dataclasses.replace(out, combined=whole))
    assert any(f"returned {whole.t} of {whole.n} elements" in p for p in problems)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "halving-implicit", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
