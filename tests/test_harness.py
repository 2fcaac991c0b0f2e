from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agentfork.config import ConfigError, SimulatorConfig
from agentfork.harness.generate import GenerateParams, generate_synthetic
from agentfork.harness.report import RunReport, emit_report, parse_machine_report
from agentfork.harness.simulate import run_conflict_phase, run_simulation
from agentfork.harness.workload import (
    ConflictScenarioParams,
    WorkloadError,
    bundled_workload_path,
    list_bundled_workloads,
    load_workload,
    save_workload,
    validate_workload_data,
    workload_from_data,
    workload_to_data,
)
from agentfork.memory import DefaultEmbedder, RelevanceWeights, compute_relevance


def test_bundled_workloads_parse():
    names = list_bundled_workloads()
    assert {"demo", "multi_file_fix", "tier_calibration", "quiet"} <= set(names)
    for name in names:
        spec = load_workload(bundled_workload_path(name))
        assert spec.trajectory, name


def test_validate_reports_out_of_range_context_occupancy():
    spec = generate_synthetic(1, GenerateParams(item_count=4, conflict_mix=None, name="t"))
    data = workload_to_data(spec)
    data["trajectory"][0]["O_c"] = 1.2
    errors = validate_workload_data(data)
    assert any("trajectory[0].O_c" in e for e in errors)
    with pytest.raises(WorkloadError):
        workload_from_data(data)


def test_validate_reports_paths_for_many_errors():
    errors = validate_workload_data(
        {
            "version": 99,
            "embedding_dim": -1,
            "task": {"description": ""},
            "memory": [{"id": "a", "tier": "bogus", "content": "x"}, {"id": "a", "tier": "episodic"}],
            "trajectory": [],
            "mystery": 1,
        }
    )
    joined = "\n".join(errors)
    assert "version" in joined
    assert "memory[0].tier" in joined
    assert "memory[1].content" in joined
    assert "memory[1].id" in joined
    assert "trajectory" in joined
    assert "mystery" in joined
    assert "$.name" in joined or "name" in joined


def test_save_load_round_trip(tmp_path):
    spec = generate_synthetic(5, GenerateParams(item_count=20, conflict_count=50, name="rt"))
    path = save_workload(spec, tmp_path / "w.json")
    again = load_workload(path)
    assert again == spec


def test_generator_deterministic_for_seed():
    params = GenerateParams(item_count=30, conflict_count=10, name="same")
    assert generate_synthetic(3, params) == generate_synthetic(3, params)
    other = generate_synthetic(4, params)
    assert other != generate_synthetic(3, params)


def test_generator_hits_relevance_quantile():
    params = GenerateParams(item_count=200, relevance_target_quantile=0.5, conflict_mix=None, name="q")
    spec = generate_synthetic(11, params)
    embedder = DefaultEmbedder(spec.embedding_dim)
    weights = RelevanceWeights()
    base_step = max(i.created_at_step for i in spec.memory)
    now = base_step + params.spike_step
    retained = sum(
        1
        for item in spec.memory
        if compute_relevance(item, spec.task, weights, now, embedder) > 0.5
    )
    assert retained / len(spec.memory) == pytest.approx(0.5, abs=0.05)


def test_conflict_phase_matches_requested_composition():
    stats = run_conflict_phase(
        ConflictScenarioParams(count=2000, line_disjoint_fraction=0.15, semantic_success_p=0.73 / 0.85),
        seed=2,
    )
    assert stats.total == 2000
    assert stats.auto / stats.total == pytest.approx(0.15, abs=0.03)
    assert stats.semantic / stats.total == pytest.approx(0.73, abs=0.04)
    assert stats.escalated / stats.total == pytest.approx(0.12, abs=0.03)
    assert stats.auto_failures == 0
    assert stats.escalation_leaks == 0


# Every ConflictPhaseStats field, in declaration order, as the merge path
# computed them before it stopped building resume packages per scenario.
_MIX = ConflictScenarioParams(count=2000, line_disjoint_fraction=0.15, semantic_success_p=0.73 / 0.85)
_PHASE_PINS = {
    ("mix", 0): (2000, 310, 1454, 236, 1690, 1454, 0, 0),
    ("mix", 7): (2000, 325, 1443, 232, 1675, 1443, 0, 0),
    ("mix", 31): (2000, 274, 1471, 255, 1726, 1471, 0, 0),
    ("tier_calibration", 0): (10000, 1506, 7293, 1201, 8494, 7293, 0, 0),
    ("tier_calibration", 7): (10000, 1541, 7269, 1190, 8459, 7269, 0, 0),
    ("tier_calibration", 31): (10000, 1430, 7310, 1260, 8570, 7310, 0, 0),
}


@pytest.mark.parametrize("source, seed", sorted(_PHASE_PINS))
def test_conflict_phase_stats_are_pinned(source, seed):
    if source == "mix":
        params = _MIX
    else:
        params = load_workload(bundled_workload_path(source)).conflicts
    assert dataclasses.astuple(run_conflict_phase(params, seed)) == _PHASE_PINS[(source, seed)]


def test_conflict_phase_deterministic():
    params = ConflictScenarioParams(count=300, line_disjoint_fraction=0.5, semantic_success_p=0.7)
    a = run_conflict_phase(params, seed=8)
    b = run_conflict_phase(params, seed=8)
    assert (a.auto, a.semantic, a.escalated) == (b.auto, b.semantic, b.escalated)


def test_run_simulation_no_spawn_workload():
    spec = load_workload(bundled_workload_path("quiet"))
    report = run_simulation(spec, SimulatorConfig(), seed=0)
    assert report.spawn_count == 0
    assert report.conflict_total == 0
    assert report.status == "completed"
    assert report.cost_per_success is None


def test_run_simulation_demo_spawns_and_merges():
    spec = load_workload(bundled_workload_path("demo"))
    report = run_simulation(spec, SimulatorConfig(), seed=3)
    assert report.spawn_count == 1
    assert report.spawns[0].outcome == "success"
    assert report.conflict_total == 400
    rates = report.conflict_rates()
    assert sum(rates) == pytest.approx(1.0)
    assert report.successes == 1
    assert report.cost_per_success == pytest.approx(report.total_cost)


def test_report_reduction_consistent_with_records():
    spec = load_workload(bundled_workload_path("single_spike"))
    report = run_simulation(spec, SimulatorConfig(), seed=0)
    record = report.spawns[0]
    expected = 100.0 * (1.0 - record.tokens_slice / record.tokens_parent)
    assert record.reduction_pct == pytest.approx(expected)
    assert report.memory_reduction_pct == pytest.approx(expected)


def test_machine_report_parses_back():
    spec = load_workload(bundled_workload_path("demo"))
    report = run_simulation(spec, SimulatorConfig(), seed=1)
    text = emit_report(report, "machine")
    summary = parse_machine_report(text)
    assert summary["workload"] == "demo"
    assert summary["seed"] == 1
    assert summary["spawn_count"] == report.spawn_count
    assert summary["conflicts.total"] == report.conflict_total
    assert summary["spawn.1.outcome"] == "success"
    assert summary["memory.reduction_pct"] == pytest.approx(report.memory_reduction_pct)


def test_machine_report_cost_na_when_no_successes():
    report = RunReport(workload="w", seed=0, status="completed")
    text = emit_report(report, "machine")
    assert "cost.per_success=n/a" in text
    assert parse_machine_report(text)["cost.per_success"] == "n/a"


def test_human_report_uses_reduction_column_names():
    spec = load_workload(bundled_workload_path("single_spike"))
    report = run_simulation(spec, SimulatorConfig(), seed=0)
    text = emit_report(report, "human")
    assert "Avg Memory" in text
    assert "Sliced Memory" in text
    assert "Reduction" in text


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report(RunReport(workload="w", seed=0, status="completed"), "xml")


def test_simulator_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"spawn_threshold": 0.6, "cooldown_steps": 0}))
    config = SimulatorConfig.from_file(path)
    assert config.spawn_threshold == 0.6
    assert config.policy_config().cooldown_steps == 0


def test_simulator_config_rejects_unknown_and_invalid_keys(tmp_path):
    with pytest.raises(ConfigError):
        SimulatorConfig.from_dict({"nope": 1})
    with pytest.raises(ConfigError):
        SimulatorConfig.from_dict({"w1": 0.9})  # weights no longer sum to 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        SimulatorConfig.from_file(bad)


def test_workload_semantic_p_drives_conflict_phase():
    spec = generate_synthetic(
        9,
        GenerateParams(
            item_count=6, conflict_mix=(0.0, 1.0, 0.0), p_semantic=1.0,
            conflict_count=200, spike=False, name="allsem",
        ),
    )
    report = run_simulation(spec, SimulatorConfig(), seed=9)
    assert report.conflict_semantic == 200
    assert report.conflict_escalated == 0


def test_generator_calibration_holds_across_twenty_seeds():
    # statistical property: quantile and tier mix stay inside their
    # stated tolerances for any seed
    quantile_params = GenerateParams(
        item_count=1000, relevance_target_quantile=0.5, conflict_mix=None, name="sweep"
    )
    embedder = DefaultEmbedder(quantile_params.embedding_dim)
    weights = RelevanceWeights()
    for seed in range(20):
        spec = generate_synthetic(seed, quantile_params)
        base_step = max(i.created_at_step for i in spec.memory)
        now = base_step + quantile_params.spike_step
        retained = sum(
            1
            for item in spec.memory
            if compute_relevance(item, spec.task, weights, now, embedder) > 0.5
        )
        assert retained / len(spec.memory) == pytest.approx(0.5, abs=0.05), f"seed {seed}"

    for seed in range(20):
        stats = run_conflict_phase(
            ConflictScenarioParams(
                count=10_000, line_disjoint_fraction=0.15, semantic_success_p=0.73 / 0.85
            ),
            seed=seed,
        )
        assert stats.auto / stats.total == pytest.approx(0.15, abs=0.02), f"seed {seed}"
        assert stats.semantic / stats.total == pytest.approx(0.73, abs=0.02), f"seed {seed}"
        assert stats.escalated / stats.total == pytest.approx(0.12, abs=0.02), f"seed {seed}"


def _probe_base() -> dict:
    data = workload_to_data(
        generate_synthetic(
            1,
            GenerateParams(
                item_count=4, conflict_count=20, trajectory_steps=4, spike_step=1, name="probe"
            ),
        )
    )
    outcome = data["child_outcomes"]["context_compression"]
    outcome["trace"] = [
        {"step": 1, "kind": "decision", "summary": "split the fix"},
        {"step": 2, "kind": "edit", "summary": "guard the header"},
    ]
    outcome["spawns"] = [{"outcome": "leaf", "specialization": "testing_debugging"}]
    data["child_outcomes"]["leaf"] = {"execution_time": 3.0, "output": "leaf work"}
    return data


PROBE_BASE = _probe_base()
OUTCOME = "child_outcomes.context_compression"


def _set(path, value):
    def mutate(data):
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        node[last] = value

    return mutate


def _duplicate_skill_id(data):
    data["skills"][1]["id"] = data["skills"][0]["id"]


def _overlapping_diffs(data):
    diffs = data["child_outcomes"]["context_compression"]["diffs"]
    diffs.append(copy.deepcopy(diffs[0]))


def _misspelled_key(data):
    outcome = data["child_outcomes"]["context_compression"]
    outcome["tokens_usd"] = outcome.pop("tokens_used")


# Each input crashed the validator or was accepted and then crashed or
# misbehaved at load or run time.
VALIDATOR_PROBES = [
    ("diffs_not_list", _set(("child_outcomes", "context_compression", "diffs"), 5), f"{OUTCOME}.diffs"),
    ("skills_not_list", _set(("skills",), 3), "skills"),
    ("trace_not_list", _set(("child_outcomes", "context_compression", "trace"), 7), f"{OUTCOME}.trace"),
    (
        "skills_learned_not_list",
        _set(("child_outcomes", "context_compression", "skills_learned"), 1),
        f"{OUTCOME}.skills_learned",
    ),
    ("fractional_embedding_dim", _set(("embedding_dim",), 1.5), "embedding_dim"),
    ("nan_metric", _set(("trajectory", 0, "O_c"), float("nan")), "trajectory[0].O_c"),
    ("infinite_conflict_count", _set(("conflicts", "count"), float("inf")), "conflicts.count"),
    ("duplicate_skill_id", _duplicate_skill_id, "skills[1].id"),
    ("overlapping_diffs_in_one_outcome", _overlapping_diffs, f"{OUTCOME}.diffs"),
    ("misspelled_key", _misspelled_key, f"{OUTCOME}.tokens_usd"),
    ("memory_id_of_a_replayed_item", _set(("memory", 0, "id"), "spawn-0001:output"), "memory"),
]


@pytest.mark.parametrize(
    "mutate,path", [p[1:] for p in VALIDATOR_PROBES], ids=[p[0] for p in VALIDATOR_PROBES]
)
def test_validator_rejects_probe_at_field_path(mutate, path):
    data = copy.deepcopy(PROBE_BASE)
    mutate(data)
    errors = validate_workload_data(data)
    assert any(e.startswith(f"{path}: ") for e in errors), errors
    with pytest.raises(WorkloadError):
        workload_from_data(data)


def test_probe_base_is_valid_and_runs():
    assert validate_workload_data(PROBE_BASE) == []
    report = run_simulation(workload_from_data(PROBE_BASE), SimulatorConfig(), seed=0)
    assert report.spawn_count == 1 and report.tree_max_depth == 2


_JUNK = [None, True, -1, 0, 1, 2.5, 2**60, float("nan"), float("inf"), "", "x", [], {}, ["x"], {"x": 1}]


def _locations(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _locations(child, path + (key,))


@st.composite
def _mutated_workloads(draw):
    data = copy.deepcopy(PROBE_BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_locations(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]] if path else data
        action = draw(st.sampled_from(("replace", "delete", "add_key")))
        junk = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        if action == "add_key" and isinstance(target, dict):
            target[draw(st.sampled_from(("x", "id", "tokens_usd")))] = junk
        elif action == "delete" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = junk
    return data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_workloads())
def test_validate_is_total_and_accepted_workloads_run(data):
    errors = validate_workload_data(data)
    assert isinstance(errors, list)
    if errors:
        with pytest.raises(WorkloadError):
            workload_from_data(data)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        spec = load_workload(path)
    report = run_simulation(spec, SimulatorConfig(), seed=0)
    assert report.status == "completed"
    assert parse_machine_report(emit_report(report, "machine"))["workload"] == spec.name


PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def test_bundled_machine_reports_match_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))["bundled"]
    digests = {}
    for name in list_bundled_workloads():
        spec = load_workload(bundled_workload_path(name))
        for seed in (0, 7):
            text = emit_report(run_simulation(spec, SimulatorConfig(), seed), "machine")
            digests[f"{name}:{seed}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digests == pins


CHECKPOINT_PINS = Path(__file__).resolve().parent / "checkpoint_pins.json"


def _checkpoint_digests(root: Path) -> dict[str, str]:
    digests = {}
    for name in list_bundled_workloads():
        spec = load_workload(bundled_workload_path(name))
        for seed in (0, 7):
            directory = root / f"{name}-{seed}"
            run_simulation(spec, SimulatorConfig(checkpoint_dir=str(directory)), seed)
            for path in sorted(directory.glob("*.json")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                digests[f"{name}:{seed}/{path.name}"] = digest
    return digests


def test_bundled_checkpoints_match_pins(tmp_path):
    """Spawn and resume checkpoints of every bundled workload keep their
    exact wire bytes."""
    pins = json.loads(CHECKPOINT_PINS.read_text(encoding="utf-8"))
    assert _checkpoint_digests(tmp_path) == pins


def test_bundled_fixtures_save_byte_identical(tmp_path):
    for name in list_bundled_workloads():
        original = bundled_workload_path(name)
        saved = save_workload(load_workload(original), tmp_path / f"{name}.json")
        assert saved.read_bytes() == original.read_bytes(), name
