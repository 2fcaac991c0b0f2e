"""Acceptance gate: ten release criteria, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import time

import pytest

from agentfork.cli import main as cli_main
from agentfork.config import SimulatorConfig
from agentfork.harness.simulate import run_conflict_phase, run_simulation
from agentfork.harness.workload import ConflictScenarioParams, bundled_workload_path, load_workload
from agentfork.memory import (
    DefaultEmbedder,
    compute_relevance,
    count_tokens,
    slice_memory,
)
from agentfork.policy import (
    CalibrationState,
    RuntimeState,
    SpawnAction,
    Specialization,
    decide_spawn,
    dominant_specialization,
    spawn_score,
    update_calibration,
)
from agentfork.protocol import decode_package, encode_package

from conftest import (
    DIM,
    at_threshold,
    random_metrics,
    random_resume_package,
    random_spawn_package,
    random_store,
    random_task,
    run_event_lines,
)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number:02d} ({title}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {number:02d} ({title}): PASS")


def test_criterion_01_slicing_oracle_equivalence():
    with criterion(1, "slicing oracle equivalence on 1000 fuzzed stores"):
        rng = random.Random(1001)
        embedder = DefaultEmbedder(DIM)
        config = SimulatorConfig()
        started = time.perf_counter()
        for _ in range(1000):
            store = random_store(rng, embedder, max_items=200)
            task = random_task(rng)
            threshold = rng.random()
            sliced = slice_memory(store, task, at_threshold(config, threshold), embedder)
            oracle = [
                item
                for item in store.items()
                if compute_relevance(item, task, config, store.current_step, embedder) > threshold
            ]
            assert list(sliced.items) == oracle
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_threshold_and_temporal_monotonicity():
    with criterion(2, "threshold subset and temporal decay monotonicity"):
        rng = random.Random(2002)
        embedder = DefaultEmbedder(DIM)
        config = SimulatorConfig()
        for _ in range(100):
            store = random_store(rng, embedder, max_items=60)
            task = random_task(rng)
            theta = rng.uniform(0.0, 0.95)
            epsilon = rng.uniform(0.001, 1.0 - theta)
            base = {i.id for i in slice_memory(store, task, at_threshold(config, theta), embedder).items}
            tighter = {
                i.id
                for i in slice_memory(store, task, at_threshold(config, theta + epsilon), embedder).items
            }
            assert tighter <= base
            for item in store.items():
                young = compute_relevance(item, task, config, store.current_step, embedder)
                older = compute_relevance(
                    item, task, config, store.current_step + rng.randint(0, 30), embedder
                )
                assert older <= young + 1e-12


def _oracle_decision(metrics, calibration, config, runtime_state):
    names = ("interdependency", "cyclomatic", "failure_cascade", "context_occupancy", "uncertainty")
    normalized = []
    for name in names:
        value = getattr(metrics, name)
        lo, hi = calibration.bounds[name]
        normalized.append(0.0 if hi == lo else min(1.0, max(0.0, (value - lo) / (hi - lo))))
    score = sum(w * v for w, v in zip(config.weights, normalized))
    spawn = (
        score > config.spawn_threshold
        and runtime_state.depth < config.max_spawn_depth
        and runtime_state.active_children < config.concurrent_spawn_limit
        and runtime_state.steps_since_last_spawn >= config.cooldown_steps
    )
    best = max(range(5), key=lambda i: (normalized[i], -i))
    order = (
        Specialization.REFACTORING,
        Specialization.SIMPLIFICATION,
        Specialization.TESTING_DEBUGGING,
        Specialization.CONTEXT_COMPRESSION,
        Specialization.RESEARCH_ANALYSIS,
    )
    return spawn, order[best] if spawn else None, score


def test_criterion_03_spawn_policy_oracle():
    with criterion(3, "spawn decision matches brute force on 10000 vectors"):
        rng = random.Random(3003)
        config = SimulatorConfig()  # default weights
        calibration = CalibrationState()
        for n in range(10_000):
            if n % 7 == 0:
                calibration = CalibrationState()
            metrics = random_metrics(rng)
            update_calibration(calibration, metrics)
            runtime_state = RuntimeState(
                depth=rng.randint(0, 4),
                active_children=rng.randint(0, 6),
                steps_since_last_spawn=rng.randint(0, 12),
            )
            decision = decide_spawn(metrics, calibration, config, runtime_state)
            spawn, spec, score = _oracle_decision(metrics, calibration, config, runtime_state)
            assert (decision.action is SpawnAction.SPAWN) == spawn
            assert decision.specialization == spec
            assert decision.score == pytest.approx(score, abs=1e-12)
            # coordinate monotonicity of the weighted score
            bump = rng.randrange(5)
            bumped = tuple(
                min(1.0, v + rng.random() * (1.0 - v)) if k == bump else v
                for k, v in enumerate(decision.normalized_metrics)
            )
            assert spawn_score(bumped, config.weights) >= decision.score - 1e-12


def test_criterion_04_specialization_mapping_exhaustive():
    with criterion(4, "dominant-metric specialization mapping and tie order"):
        order = (
            Specialization.REFACTORING,
            Specialization.SIMPLIFICATION,
            Specialization.TESTING_DEBUGGING,
            Specialization.CONTEXT_COMPRESSION,
            Specialization.RESEARCH_ANALYSIS,
        )
        for perm in itertools.permutations((0.9, 0.7, 0.5, 0.3, 0.1)):
            expected = order[perm.index(max(perm))]
            assert dominant_specialization(perm) is expected
        for grid in itertools.product((0.2, 0.8), repeat=5):
            first_max = grid.index(max(grid))
            assert dominant_specialization(grid) is order[first_max]


WIRE_SPAWN_KEYS = ("spawn_id", "parent_id", "timestamp", "memory", "skills", "context", "task", "spawn_metrics")
WIRE_MEMORY_KEYS = ("episodic", "semantic", "working")
WIRE_CONTEXT_KEYS = ("repo_path", "current_file", "line_number", "pending_changes")
WIRE_TASK_KEYS = ("description", "constraints", "expected_outcome")
WIRE_METRIC_KEYS = ("I_f", "C_c", "F_c", "O_c", "U_c", "S_spawn")
WIRE_RESUME_KEYS = ("spawn_id", "status", "execution_time", "result", "trace", "skills_learned", "metrics")
WIRE_RESULT_KEYS = ("output", "code_diff", "files_modified")
WIRE_CHILD_METRIC_KEYS = ("tokens_used", "api_calls", "test_pass_rate")
# Task objects also carry the child task's declared code targets so
# round trips stay lossless; they extend the frozen wire field list.
TASK_TARGET_KEYS = ("referenced_files", "referenced_symbols")


def test_criterion_05_codec_round_trip_and_schema():
    with criterion(5, "codec round trip, canonical fixpoint, wire key sets"):
        rng = random.Random(5005)
        embedder = DefaultEmbedder(DIM)
        for n in range(1000):
            package = (
                random_spawn_package(rng, embedder) if n % 2 == 0 else random_resume_package(rng)
            )
            data = encode_package(package)
            decoded = decode_package(data)
            assert decoded == package
            assert encode_package(decoded) == data
        spawn_obj = json.loads(encode_package(random_spawn_package(rng, embedder)))
        assert tuple(spawn_obj) == WIRE_SPAWN_KEYS
        assert tuple(spawn_obj["memory"]) == WIRE_MEMORY_KEYS
        assert tuple(spawn_obj["context"]) == WIRE_CONTEXT_KEYS
        assert tuple(spawn_obj["task"]) == WIRE_TASK_KEYS + TASK_TARGET_KEYS
        assert tuple(spawn_obj["spawn_metrics"]) == WIRE_METRIC_KEYS
        resume_obj = json.loads(encode_package(random_resume_package(rng)))
        assert tuple(resume_obj) == WIRE_RESUME_KEYS
        assert tuple(resume_obj["result"]) == WIRE_RESULT_KEYS
        assert tuple(resume_obj["metrics"]) == WIRE_CHILD_METRIC_KEYS


def test_criterion_06_coherence_statistics():
    with criterion(6, "semantic success rate 0.73 +/- 0.02 over 10000 conflicts"):
        started = time.perf_counter()
        overlapping = run_conflict_phase(
            ConflictScenarioParams(count=10_000, line_disjoint_fraction=0.0, semantic_success_p=0.73),
            seed=606,
        )
        assert overlapping.total == 10_000
        assert overlapping.auto == 0
        semantic_rate = overlapping.semantic / overlapping.total
        assert semantic_rate == pytest.approx(0.73, abs=0.02)
        backend_rate = overlapping.semantic_successes / overlapping.semantic_attempts
        assert backend_rate == pytest.approx(0.73, abs=0.02)
        assert overlapping.escalation_leaks == 0

        disjoint = run_conflict_phase(
            ConflictScenarioParams(count=2_000, line_disjoint_fraction=1.0, semantic_success_p=0.73),
            seed=607,
        )
        assert disjoint.auto == disjoint.total == 2_000
        assert disjoint.escalated == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_criterion_07_tier_distribution_calibration():
    with criterion(7, "tier mix within 2 points of 15/73/12 at 10000 conflicts"):
        spec = load_workload(bundled_workload_path("tier_calibration"))
        assert spec.conflicts is not None and spec.conflicts.count == 10_000
        report = run_simulation(spec, SimulatorConfig(), seed=7)
        assert report["conflicts.total"] == 10_000
        assert report["conflicts.auto_rate"] == pytest.approx(0.15, abs=0.02)
        assert report["conflicts.semantic_rate"] == pytest.approx(0.73, abs=0.02)
        assert report["conflicts.escalated_rate"] == pytest.approx(0.12, abs=0.02)
        assert report["escalation_leaks"] == 0


def test_criterion_08_memory_reduction_calibration():
    with criterion(8, "multi-file fix reduction 42% +/- 5 vs brute-force counts"):
        spec = load_workload(bundled_workload_path("multi_file_fix"))
        config = SimulatorConfig()
        assert config.memory_threshold == 0.5
        report = run_simulation(spec, config, seed=8)
        assert report["spawn_count"] == 1
        assert report["memory.reduction_pct"] == pytest.approx(42.0, abs=5.0)

        # independent recomputation from the workload data
        embedder = DefaultEmbedder(spec.embedding_dim)
        base_step = max(item.created_at_step for item in spec.memory)
        now = base_step + report["spawn.1.step"]
        kept = [
            item
            for item in spec.memory
            if compute_relevance(item, spec.task, config, now, embedder) > 0.5
        ]
        brute = 100.0 * (1.0 - count_tokens(kept) / count_tokens(spec.memory))
        assert report["memory.reduction_pct"] == pytest.approx(brute, abs=1e-9)


def test_criterion_09_runtime_limits():
    with criterion(9, "depth and concurrency limits, timeout handling"):
        config = SimulatorConfig()

        depth_spec = load_workload(bundled_workload_path("adversarial_depth"))
        depth = run_simulation(depth_spec, config, seed=9)
        assert depth["status"] == "completed"
        assert depth["rejected_spawns"] == 1
        assert depth["tree_max_depth"] == 3
        assert any("spawn_rejected" in e and "depth 4" in e for e in run_event_lines(depth_spec, config, 9))

        burst_spec = load_workload(bundled_workload_path("adversarial_concurrency"))
        burst = run_simulation(burst_spec, config, seed=9)
        assert burst["status"] == "completed"
        assert burst["queued_spawns"] == 2
        assert sum(1 for e in run_event_lines(burst_spec, config, 9) if "queue_admitted" in e) == 2
        assert burst["tree_max_depth"] <= 3
        assert len(burst["tree_edges"].split(",")) == 7  # all six siblings eventually ran

        timeout_spec = load_workload(bundled_workload_path("timeout_child"))
        timeout = run_simulation(timeout_spec, config, seed=9)
        assert timeout["status"] == "completed"
        assert timeout["spawn.1.outcome"] == "timed_out"
        assert any("child_timed_out" in e for e in run_event_lines(timeout_spec, config, 9))


def test_criterion_10_deterministic_machine_reports(tmp_path):
    with criterion(10, "byte-identical machine reports across 20 seeds"):
        workload_path = str(bundled_workload_path("demo"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"semantic_merge_p": 0.73}))
        for seed in range(20):
            outputs = []
            for attempt in range(2):
                report_path = tmp_path / f"report-{seed}-{attempt}.txt"
                code = cli_main(
                    [
                        "run",
                        "--workload", workload_path,
                        "--config", str(config_path),
                        "--seed", str(seed),
                        "--report", str(report_path),
                        "--format", "machine",
                    ]
                )
                assert code == 0
                outputs.append(report_path.read_bytes())
            assert outputs[0] == outputs[1], f"seed {seed} reports differ"
