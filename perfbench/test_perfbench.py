"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import robustpr  # noqa: E402
import robustpr.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _references():
    """Every function reachable as a robustpr module attribute or dict value."""
    for mod in tracing.robustpr_modules():
        for attr, obj in vars(mod).items():
            values = obj.values() if isinstance(obj, dict) else [obj]
            for val in values:
                if inspect.isfunction(val):
                    yield f"{mod.__name__}.{attr}", val


def test_install_leaves_no_unwrapped_layer_function():
    originals = tracing.layer_functions()
    assert {"measure.apply", "measure.apply_adjoint", "measure.measure",
            "spectral.min_eigenvector", "harness.run_solve_experiment",
            "landscape.graph_closeness_audit", "netpbm.atomic_write_bytes"} <= set(originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stale = [where for where, fn in _references()
                 if any(fn is orig for orig in originals.values())]
        assert stale == []
        # The aliases that patching only the defining module would miss.
        import robustpr.harness as harness
        import robustpr.objective as objective
        import robustpr.spectral as spectral
        for fn in (objective.apply, spectral.apply_adjoint, harness.take_measurements,
                   robustpr.cli._RUNNERS["solve"], robustpr.apply):
            assert hasattr(fn, "__wrapped_layer__")
    finally:
        tracer.uninstall()
    assert not any(hasattr(fn, "__wrapped_layer__") for _, fn in _references())


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_calls_that_raised_add_no_facts():
    spans = [["spectral.min_eigenvector", 0.0, 2.0, -1, 0, None],
             ["measure.apply", 0.5, 1.0, 0, 0, None],
             ["measure.apply", 1.0, 1.5, 0, 0, {"bytes": 8}]]
    metrics = tracing.layer_metrics(spans, [])
    assert metrics["measure.matvecs"] == 2
    assert metrics["measure.matvec_bytes_computed"] == 8
    assert metrics["spectral.power_iters_p50"] == 0
    assert metrics["spectral.not_converged_fraction"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    times = list(range(1, 31))
    value, pct, beyond = run.tail_percentile(times)
    assert (value, pct, beyond) == (20, 66, 10)
    assert run.tail_percentile(list(range(1, 8)))[1] == 50


def test_benchmark_grid_check_agrees_with_library():
    axis = np.linspace(-2.0, 2.0, 401)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    for xbar in (workloads.LATTICE_SIGNALS[0], workloads.LATTICE_SIGNALS[7]):
        _, g = robustpr.population_grid(np.array(xbar), g1, g2)
        ours = workloads.grid_minima(g, workloads.GRID_MIN_VALUE)
        assert ours == robustpr.grid_local_minima(g, max_value=workloads.GRID_MIN_VALUE)
        assert len(ours) == 5


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    assert f"rel_dist <= {workloads.CORRUPTED_REL_DIST_MAX:g}" in why["corrupted_solve"]
    raw = {"times": [1.0, 2.0, 3.0], "attempted": 3, "failed": 0, "peak_rss_mb": 1.0}
    printed = run.end_to_end(raw, [0.1, 0.2])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit, _) in printed.items()}
    layers = tracing.layer_metrics([], [])
    layers["trace.overhead_fraction"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers}


def _traced(workload):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["dense_recover", "corrupted_solve", "sketch_image"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    for name in ("measure.matvecs", "solver.polyak_step.calls", "spectral.power_iters_p50",
                 "trace.spans"):
        assert first[name] == second[name] > 0
