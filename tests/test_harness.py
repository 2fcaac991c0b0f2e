from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agentfork import schema
from agentfork.cli import main
from agentfork.config import CONFIG, SimulatorConfig
from agentfork.harness.generate import PARAMS, GenerateParams, generate_synthetic
from agentfork.harness.report import RunReport, emit_report, parse_machine_report
from agentfork.coherence import merge_diff_sets
from agentfork.harness import simulate
from agentfork.harness.simulate import run_conflict_phase, run_simulation
from agentfork.harness.workload import (
    ConflictScenarioParams,
    bundled_workload_path,
    list_bundled_workloads,
    load_workload,
    save_workload,
    validate_workload_data,
    workload_from_data,
    workload_to_data,
)
from agentfork.harness import workload as workload_module
from agentfork.memory import DefaultEmbedder, MemoryError, compute_relevance, default_embed


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
    with pytest.raises(schema.InputError):
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


@pytest.mark.parametrize("dim", [8, 64])
def test_load_embeds_each_distinct_content_once_and_shares_its_tuple(monkeypatch, dim):
    data = json.loads(bundled_workload_path("quiet").read_text(encoding="utf-8"))
    contents = [item["content"] for item in data["memory"][:3]] + ["", "!! ?", "Parser"]
    data["embedding_dim"] = dim
    data["memory"] = [
        {"id": f"r{n}", "tier": "episodic", "content": contents[n * 5 % len(contents)]} for n in range(40)
    ]
    embedded, built = [], []
    embed, build = DefaultEmbedder.__call__, workload_module.make_item
    monkeypatch.setattr(DefaultEmbedder, "__call__", lambda self, text: embedded.append(text) or embed(self, text))
    monkeypatch.setattr(workload_module, "make_item", lambda **kw: built.append(kw) or build(**kw))
    spec = workload_from_data(data)
    assert sorted(embedded) == sorted(contents)
    assert len(built) == len(spec.memory) == 40
    first = {}
    for item in spec.memory:
        expected = default_embed(item.content, dim)
        assert [struct.pack("<d", v) for v in item.embedding] == [struct.pack("<d", v) for v in expected]
        assert item.embedding is first.setdefault(item.content, item.embedding)
    assert len(first) == len(contents)


def test_load_shares_one_object_per_distinct_content_and_reference_set(tmp_path):
    data = json.loads(bundled_workload_path("quiet").read_text(encoding="utf-8"))
    names = [[], ["src/a.py"], ["src/b.py", "src/a.py"]]
    data["memory"] = [
        {
            "id": f"r{n}",
            "tier": "semantic",
            "content": f"shared text {n % 4}",
            "referenced_files": names[n % 3],
            "referenced_symbols": names[n % 2],
        }
        for n in range(24)
    ]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    spec = load_workload(path)
    first = {}
    for item in spec.memory:
        for value in (item.content, item.referenced_files, item.referenced_symbols):
            assert value is first.setdefault(value, value)
    # Four texts and three reference sets, each held by several items.
    assert len(first) == 7
    assert all(type(item.referenced_files) is frozenset for item in spec.memory)


@pytest.mark.parametrize("name", ["demo", "quiet", "tier_calibration"])
def test_workload_from_data_leaves_its_input_unchanged(name):
    path = bundled_workload_path(name)
    data = json.loads(path.read_text(encoding="utf-8"))
    before = copy.deepcopy(data)
    spec = workload_from_data(data)
    assert data == before
    assert spec == load_workload(path)


def test_load_holds_one_form_of_the_corpus(tmp_path):
    """The load's peak traced memory stays within 1.5x of what the spec
    holds: the decoded JSON is freed before any item is built, and each
    parsed item dict once its item is. Holding either for the whole load
    reads 1.7-2.0x (Python 3.10-3.13, 2,000 items)."""
    spec = generate_synthetic(3, GenerateParams(item_count=2000, conflict_mix=None, name="big"))
    path = save_workload(spec, tmp_path / "big.json")
    del spec
    tracemalloc.start()
    try:
        loaded = load_workload(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.memory) == 2000
    assert peak < 1.5 * held


def test_bad_memory_items_give_one_error_line_each(tmp_path):
    data = json.loads(bundled_workload_path("quiet").read_text(encoding="utf-8"))
    data["memory"] = [
        {"id": "m0", "tier": "semantic", "content": "fine"},
        {"id": "m1", "tier": "bogus", "content": 5, "referenced_files": ["a", 3]},
        {"id": "m0", "tier": "episodic", "content": "dup", "created_at_step": -1, "extra": 1},
    ]
    lines = [
        "memory[1].tier: unknown MemoryTier 'bogus'",
        "memory[1].content: expected string",
        "memory[1].referenced_files[1]: expected string",
        "memory[2].id: duplicate 'm0'",
        "memory[2].created_at_step: -1 outside [0, 9007199254740992]",
        "memory[2].extra: unknown key",
    ]
    assert validate_workload_data(data) == lines
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for load, source in ((lambda: workload_from_data(data, "w.json"), "w.json"), (lambda: load_workload(path), path)):
        with pytest.raises(schema.InputError) as err:
            load()
        assert list(err.value.errors) == [f"{source}: {line}" for line in lines]


def test_generator_deterministic_for_seed():
    params = GenerateParams(item_count=30, conflict_count=10, name="same")
    assert generate_synthetic(3, params) == generate_synthetic(3, params)
    other = generate_synthetic(4, params)
    assert other != generate_synthetic(3, params)


def test_generator_hits_relevance_quantile():
    params = GenerateParams(item_count=200, relevance_target_quantile=0.5, conflict_mix=None, name="q")
    spec = generate_synthetic(11, params)
    embedder = DefaultEmbedder(spec.embedding_dim)
    config = SimulatorConfig()
    base_step = max(i.created_at_step for i in spec.memory)
    now = base_step + params.spike_step
    retained = sum(
        1
        for item in spec.memory
        if compute_relevance(item, spec.task, config, now, embedder) > 0.5
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
    assert stats.escalation_leaks == 0


# Every ConflictPhaseStats field, in declaration order, as the merge path
# computed them before it stopped building resume packages per scenario.
_MIX = ConflictScenarioParams(count=2000, line_disjoint_fraction=0.15, semantic_success_p=0.73 / 0.85)
_PHASE_PINS = {
    ("mix", 0): (2000, 310, 1454, 236, 1690, 1454, 0),
    ("mix", 7): (2000, 325, 1443, 232, 1675, 1443, 0),
    ("mix", 31): (2000, 274, 1471, 255, 1726, 1471, 0),
    ("tier_calibration", 0): (10000, 1506, 7293, 1201, 8494, 7293, 0),
    ("tier_calibration", 7): (10000, 1541, 7269, 1190, 8459, 7269, 0),
    ("tier_calibration", 31): (10000, 1430, 7310, 1260, 8570, 7310, 0),
}


@pytest.mark.parametrize("source, seed", sorted(_PHASE_PINS))
def test_conflict_phase_stats_are_pinned(source, seed):
    if source == "mix":
        params = _MIX
    else:
        params = load_workload(bundled_workload_path(source)).conflicts
    assert dataclasses.astuple(run_conflict_phase(params, seed)) == _PHASE_PINS[(source, seed)]


def _phase_draws(monkeypatch, params, seed):
    """The phase's stats and each scenario's ``(left, right)`` diffs, as
    handed to ``simulate.merge_results``."""
    drawn = []

    def recording(entries, base_files, backend):
        drawn.append(tuple(diffs[0] for _, diffs in entries))
        return merge_diff_sets(entries, base_files, backend)

    monkeypatch.setattr(simulate, "merge_results", recording)
    return run_conflict_phase(params, seed), drawn


# All-overlapping and all-disjoint phases, so each branch's draw shows
# alone: the stats and a digest of the repr of every drawn diff pair, as
# the phase computed them when it still built two diffs per scenario.
_EDGE_PINS = {
    (0.0, 0): ((2000, 0, 1723, 277, 2000, 1723, 0), "77410446bed8d9e0"),
    (0.0, 19): ((2000, 0, 1716, 284, 2000, 1716, 0), "4fe85ef29a53b347"),
    (1.0, 0): ((2000, 2000, 0, 0, 0, 0, 0), "258150ba5e3a8bd7"),
    (1.0, 19): ((2000, 2000, 0, 0, 0, 0, 0), "566f9dc27a86bb8a"),
}


@pytest.mark.parametrize("fraction, seed", sorted(_EDGE_PINS))
def test_conflict_phase_edge_fractions_are_pinned(monkeypatch, fraction, seed):
    params = dataclasses.replace(_MIX, line_disjoint_fraction=fraction)
    stats, drawn = _phase_draws(monkeypatch, params, seed)
    digest = hashlib.sha256(repr(drawn).encode()).hexdigest()[:16]
    assert (dataclasses.astuple(stats), digest) == _EDGE_PINS[(fraction, seed)]


def test_conflict_phase_shares_its_six_scenario_pairs(monkeypatch):
    params = dataclasses.replace(_MIX, line_disjoint_fraction=0.5)
    _, drawn = _phase_draws(monkeypatch, params, seed=3)
    assert len(drawn) == 2000
    assert len({(id(left), id(right)) for left, right in drawn}) <= 6


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
    assert config.cooldown_steps == 0


def test_simulator_config_is_frozen():
    config = SimulatorConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.spawn_threshold = 0.9


def test_cooldown_does_not_delay_the_first_spawn():
    spec = load_workload(bundled_workload_path("single_spike"))
    report = run_simulation(spec, SimulatorConfig(cooldown_steps=2**53), seed=0)
    assert report.spawn_count == 1


def test_simulator_config_rejects_unknown_and_invalid_keys(tmp_path):
    with pytest.raises(schema.InputError):
        schema.parse_file(CONFIG, {"nope": 1})
    with pytest.raises(schema.InputError):
        schema.parse_file(CONFIG, {"w1": 0.9})  # weights no longer sum to 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(schema.InputError):
        SimulatorConfig.from_file(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(SimulatorConfig) if f.type == "float"]
)
def test_simulator_config_rejects_non_finite_floats(field, value):
    """A config built in Python takes the rules a config file does: no
    NaN and no infinity in any float field."""
    with pytest.raises(ValueError):
        SimulatorConfig(**{field: value})
    with pytest.raises(schema.InputError):
        schema.parse_file(CONFIG, {field: value})


def test_config_and_params_tables_match_their_dataclasses():
    assert schema.parse_file(CONFIG, {}) == SimulatorConfig()
    assert schema.parse_file(PARAMS, {}) == GenerateParams()
    for table, cls in ((CONFIG, SimulatorConfig), (PARAMS, GenerateParams)):
        assert table.keys[schema.FILE] == {f.name for f in dataclasses.fields(cls)}


def test_float_knob_spelled_as_an_integer_runs_as_its_float():
    spec = load_workload(bundled_workload_path("timeout_child"))
    reports = []
    for value in (5, 5.0):
        config = schema.parse_file(CONFIG, {"child_timeout_secs": value})
        assert type(config.child_timeout_secs) is float
        reports.append(run_simulation(spec, config, seed=0))
    assert emit_report(reports[0], "machine") == emit_report(reports[1], "machine")
    assert any(e.endswith("after 5.0s") for e in reports[0].events)


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
    config = SimulatorConfig()
    for seed in range(20):
        spec = generate_synthetic(seed, quantile_params)
        base_step = max(i.created_at_step for i in spec.memory)
        now = base_step + quantile_params.spike_step
        retained = sum(
            1
            for item in spec.memory
            if compute_relevance(item, spec.task, config, now, embedder) > 0.5
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
    ("memory_step_past_2_53", _set(("memory", 0, "created_at_step"), 2**53), "memory"),
]


@pytest.mark.parametrize(
    "mutate,path", [p[1:] for p in VALIDATOR_PROBES], ids=[p[0] for p in VALIDATOR_PROBES]
)
def test_validator_rejects_probe_at_field_path(mutate, path):
    data = copy.deepcopy(PROBE_BASE)
    mutate(data)
    errors = validate_workload_data(data)
    assert any(e.startswith(f"{path}: ") for e in errors), errors
    with pytest.raises(schema.InputError):
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
        with pytest.raises(schema.InputError):
            workload_from_data(data)
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        spec = load_workload(path)
    report = run_simulation(spec, SimulatorConfig(), seed=0)
    assert report.status == "completed"
    assert parse_machine_report(emit_report(report, "machine"))["workload"] == spec.name


def _reference_load(path):
    """The spec or error lines of a workload file decoded whole."""
    try:
        return workload_from_data(schema.read_json(path), path)
    except schema.InputError as exc:
        return list(exc.errors)


def _reference_validate(path):
    """Exit code and stderr lines of ``agentfork validate`` on a file decoded whole."""
    try:
        errors = validate_workload_data(schema.read_json(path))
    except schema.InputError as exc:
        return 2, list(exc.errors)
    return (1 if errors else 0), [f"{path}: {line}" for line in errors]


def _streamed_load(path):
    try:
        return load_workload(path)
    except schema.InputError as exc:
        return list(exc.errors)


def _streamed_validate(path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    return code, err.getvalue().splitlines()


def _assert_reads_as_decoded_whole(path):
    assert _streamed_load(path) == _reference_load(path)
    assert _streamed_validate(path) == _reference_validate(path)


def _object_text(pairs, indent) -> str:
    """A JSON object of ``(key, value)`` pairs, repeated keys kept."""
    sep = "\n" if indent else ""
    body = f",{sep}".join(f"{json.dumps(k)}: {json.dumps(v, indent=indent)}" for k, v in pairs)
    return "{" + sep + body + sep + "}"


@st.composite
def _mutated_texts(draw):
    """A workload file's bytes: a mutated document whose keys may repeat
    or move, then perhaps broken at the byte level."""
    data = draw(_mutated_workloads()) if draw(st.booleans()) else copy.deepcopy(PROBE_BASE)
    if not isinstance(data, dict):
        return json.dumps(data).encode()
    pairs = list(data.items())
    for edit in draw(st.lists(st.sampled_from(("memory_twice", "dim_after_memory", "dim_twice", "shuffle")), max_size=2)):
        if edit == "memory_twice":
            pairs.append(("memory", list(reversed(PROBE_BASE["memory"][: draw(st.integers(0, 4))]))))
        elif edit == "dim_after_memory":
            pairs = [p for p in pairs if p[0] != "embedding_dim"] + [("embedding_dim", data.get("embedding_dim", 64))]
        elif edit == "dim_twice":
            pairs.append(("embedding_dim", draw(st.sampled_from([64, 8, 0, 5000, 1.5, "64", True]))))
        else:
            pairs = draw(st.permutations(pairs))
    text = _object_text(pairs, draw(st.sampled_from([None, 1]))).encode()
    at = draw(st.integers(0, len(text)))
    return draw(
        st.sampled_from(
            [
                text,
                text,
                text[:at],
                text[:at] + text[at + 1 :],
                text[:at] + draw(st.sampled_from([b"{", b"]", b",", b":", b'"', b"0", b"-", b"e", b"x", b" "])) + text[at:],
                b"\xef\xbb\xbf" + text,
                text + draw(st.sampled_from([b" x", b"{}", b"1", b" \n"])),
                text[:at] + b"\xff" + text[at:],
                b"[" + text + b"]",
            ]
        )
    )


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(text=_mutated_texts(), chunk=st.sampled_from([1, 2, 3, 5, 8, 64, workload_module.READ_CHUNK]))
def test_streamed_read_matches_the_file_decoded_whole(monkeypatch, text, chunk):
    """``load_workload`` and ``agentfork validate`` give the spec, or the
    error lines and exit code, of ``json.loads`` plus the schema parse,
    whatever the chunk boundaries cut."""
    monkeypatch.setattr(workload_module, "READ_CHUNK", chunk)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.json"
        path.write_bytes(text)
        _assert_reads_as_decoded_whole(path)


def _probe_text(*pairs) -> bytes:
    return _object_text(list(PROBE_BASE.items()) + list(pairs), None).encode()


_NUMBER_ITEM = {"id": "n1", "tier": "semantic", "content": "split number", "created_at_step": 123456789}


@pytest.mark.parametrize(
    "text",
    [
        _probe_text(("memory", [_NUMBER_ITEM])),
        _probe_text(("memory", PROBE_BASE["memory"][:2]), ("memory", [_NUMBER_ITEM])),
        _probe_text(("embedding_dim", 8)),
        _probe_text(("embedding_dim", 0)),
        _probe_text(("embedding_dim", 64)),
        _object_text([(k, v) for k, v in PROBE_BASE.items() if k != "embedding_dim"] + [("embedding_dim", 16)], 1).encode(),
        _probe_text(("extra", 1.5e300), ("memory", [dict(_NUMBER_ITEM, extra=1)])),
        b"\xef\xbb\xbf" + _probe_text(),
        _probe_text() + b" {}",
        _probe_text()[:-1] + b"\xff}",
        b"[" + _probe_text() + b"]",
        _object_text([(k, v) for k, v in PROBE_BASE.items() if k != "memory"], None).encode(),
    ],
    ids=[
        "number_straddles_chunks",
        "two_memory_lists",
        "embedding_dim_replaced_after_memory",
        "invalid_embedding_dim_after_memory",
        "same_embedding_dim_after_memory",
        "embedding_dim_only_after_memory",
        "bad_item_in_a_later_memory_list",
        "utf8_bom",
        "trailing_data",
        "non_utf8_byte",
        "top_level_list",
        "no_memory",
    ],
)
def test_streamed_read_matches_the_file_decoded_whole_at_every_small_chunk(tmp_path, monkeypatch, text):
    path = tmp_path / "w.json"
    path.write_bytes(text)
    for chunk in range(1, 10):
        monkeypatch.setattr(workload_module, "READ_CHUNK", chunk)
        _assert_reads_as_decoded_whole(path)


def test_a_valid_file_streams_without_being_decoded_whole(tmp_path, monkeypatch):
    path = tmp_path / "w.json"
    path.write_bytes(_probe_text(("memory", [_NUMBER_ITEM])))

    def whole(path):
        raise AssertionError("decoded whole")

    monkeypatch.setattr(schema, "read_json", whole)
    for chunk in (1, 2, 7, 64):
        monkeypatch.setattr(workload_module, "READ_CHUNK", chunk)
        assert load_workload(path).memory[0].created_at_step == 123456789


def test_an_item_that_fails_to_build_leaves_a_later_schema_error_first(tmp_path, monkeypatch):
    """Items are built while the file streams, but a schema error later
    in the file is still what the load reports, as when the file was
    parsed whole before any item was built."""
    def failing(**fields):
        raise MemoryError(f"item {fields['item_id']}: cannot build")

    monkeypatch.setattr(workload_module, "make_item", failing)
    path = tmp_path / "w.json"
    path.write_bytes(_probe_text(("trajectory", [])))
    with pytest.raises(schema.InputError) as err:
        load_workload(path)
    assert list(err.value.errors) == [f"{path}: trajectory: must be nonempty"]
    path.write_bytes(_probe_text())
    with pytest.raises(MemoryError, match="cannot build"):
        load_workload(path)


def test_load_peak_above_the_spec_is_a_fraction_of_the_file(tmp_path):
    """Each memory item is built before the next is decoded, and the file
    is read in chunks, so the load's traced peak above what the spec
    holds stays under 0.6x the file's size: 0.40-0.42x at 8,000 items on
    Python 3.10-3.13. Decoding the file whole and parsing it before
    building reads 0.86-1.20x."""
    spec = generate_synthetic(3, GenerateParams(item_count=8000, conflict_mix=None, name="big"))
    path = save_workload(spec, tmp_path / "big.json")
    del spec
    tracemalloc.start()
    try:
        loaded = load_workload(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.memory) == 8000
    assert peak - held < 0.6 * path.stat().st_size


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
