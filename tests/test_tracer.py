"""Guards for the benchmark's tracer (``bench/tracer.py``).

The tracer wraps functions at the names their callers bind, so renaming
a traced function in ``src/`` would break ``bench/run.py --trace 1``.
These tests make such a rename fail here instead.
"""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from agentfork.config import SimulatorConfig
from agentfork.harness import bundled_workload_path, emit_report, load_workload, run_simulation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracer()


def test_every_traced_target_exists_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_demo_report_equals_untraced():
    path = bundled_workload_path("demo")
    untraced = emit_report(run_simulation(load_workload(path), SimulatorConfig(), 0), "machine")
    with tracing.Tracer().install() as tracer:
        load = tracer.span("harness.load", load_workload)
        run = tracer.span("harness.run", run_simulation)
        emit = tracer.span("harness.emit", emit_report)
        traced = emit(run(load(path), SimulatorConfig(), 0), "machine")
    assert traced == untraced
    assert tracer.spans
    metrics, _ = tracing.layer_metrics(tracer, "fanout")
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
    assert set(metrics) <= {m["name"] for m in layers["metrics"]}


@pytest.mark.parametrize("name, requests", [("adversarial_concurrency", 7), ("adversarial_depth", 4)])
def test_tracer_counts_nested_spawn_requests(name, requests):
    """Children request their nested spawns through ``spawn_child`` too,
    so the traced call count matches the request events of the run."""
    with tracing.Tracer().install() as tracer:
        load = tracer.span("harness.load", load_workload)
        run = tracer.span("harness.run", run_simulation)
        run(load(bundled_workload_path(name)), SimulatorConfig(), 0)
    kinds = Counter(line.split()[1] for line in tracer.loop_result.event_lines())
    from_events = (
        kinds["child_started"] - kinds["queue_admitted"] + kinds["spawn_queued"] + kinds["spawn_rejected"]
    )
    metrics, _ = tracing.layer_metrics(tracer, "fanout")
    assert metrics["runtime.spawn_child_calls"] == from_events == requests
