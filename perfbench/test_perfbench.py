"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench

Run from the root of a checkout.  The workload runs use tiny sizes.
"""

import configparser
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dbnkit import dbn, models  # noqa: E402
from dbnkit.numerics import RngStream  # noqa: E402


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, ROOT / "perfbench" / "run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_sizes(workload):
    result = bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 10
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = bench("rbm_paths", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == set(layers.UNITS)
    assert result["metrics"]["kernels.ais_rbm.chain_steps"]["value"] > 0
    assert result["metrics"]["kernels.ais_srbm.chain_steps"]["value"] == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, ROOT / "perfbench" / "run.py", "--workload", "rbm_paths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_demo_copy_matches_shipped_config():
    shipped = configparser.ConfigParser(interpolation=None)
    shipped.read(ROOT / "configs" / "demo.ini")
    copy = {s: {k: str(v) for k, v in vals.items()} for s, vals in workloads.DEMO_INI.items()}
    assert copy == {s: dict(shipped[s]) for s in shipped.sections()}


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent)


def test_self_time_subtracts_child_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 4.0, 8.0, parent=0),
        _span("grandchild", 5.0, 6.0, parent=2),
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(4.0)
    assert tracing.self_time(spans, 2) == pytest.approx(3.0)
    assert tracing.self_time(spans, 3) == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 2.0, 6.0, parent=0),
        _span("b", 4.0, 12.0, parent=0),  # overlaps a and outlives the root
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(2.0)


def _small_stack():
    rng = RngStream(5).generator()
    return dbn.DbnModel([
        models.initialize_layer("rbm", 4, 3, rng, weight_scale=0.5),
        models.initialize_layer("rbm", 3, 3, rng, weight_scale=0.5),
    ])


def test_traced_calls_nest_and_self_time_excludes_children():
    stack = _small_stack()
    x = (RngStream(6).generator().random((5, 4)) < 0.5).astype(float)
    with tracing.Tracer() as tracer:
        traced = dbn.brute_force_log_likelihood(stack, x)
    assert traced == pytest.approx(dbn.brute_force_log_likelihood(stack, x))
    spans = tracer.spans
    outer = next(i for i, s in enumerate(spans) if s.name == "dbn.brute_force_log_likelihood")
    inner = [i for i, s in enumerate(spans) if s.parent == outer]
    assert "models.brute_force_log_partition" in {spans[i].name for i in inner}
    expected = spans[outer].duration - sum(spans[i].duration for i in inner)
    assert tracing.self_time(spans, outer) == pytest.approx(expected, abs=1e-9)


def _attributes():
    snapshot = {}
    for name in tracing.MODULES + ("numerics",):
        module = importlib.import_module(f"dbnkit.{name}")
        snapshot.update({(name, k): v for k, v in vars(module).items()})
    for module, cls, method, _ in tracing.METHODS:
        owner = getattr(importlib.import_module(f"dbnkit.{module}"), cls)
        snapshot[(cls, method)] = owner.__dict__[method]
    return snapshot


def test_tracer_restores_every_wrapped_function():
    before = _attributes()
    with tracing.Tracer() as tracer:
        assert tracer.patched_count() > 50
        changed = {k for k, v in _attributes().items() if before[k] is not v}
        assert ("numerics", "monte_carlo_se") in changed
        assert ("estimation", "monte_carlo_se") in changed
        assert ("pipeline", "write_container") in changed
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.patched_count() == 0


def test_tracer_restores_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert all(_attributes()[k] is v for k, v in before.items())


def test_untraced_calls_record_nothing_after_exit():
    stack = _small_stack()
    with tracing.Tracer() as tracer:
        pass
    models.brute_force_log_partition(stack.top)
    assert tracer.spans == []
