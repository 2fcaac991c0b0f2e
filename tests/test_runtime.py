from __future__ import annotations

import pytest

from agentfork.coherence import Diff, Hunk
from agentfork.memory import DefaultEmbedder, MemoryStore, MemoryTier, RelevanceWeights, make_item
from agentfork.policy import (
    ComplexityMetrics,
    SpawnAction,
    SpawnDecision,
    SpawnPolicyConfig,
    Specialization,
)
from agentfork.protocol import (
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    MemorySlice,
    ParentState,
    ResultPayload,
    ResumePackage,
    TaskSpec,
    build_spawn_package,
    decode_package,
    encode_package,
)
from agentfork.runtime import (
    AgentId,
    ChildFailure,
    ChildScheduler,
    Event,
    LoopConfig,
    LoopWorkload,
    NestedSpawn,
    NodeStatus,
    OrchestrationError,
    RuntimeConfig,
    ScriptedBackend,
    ScriptedOutcome,
    ServiceBackend,
    SpawnTree,
    SpawnTreeError,
    VirtualClock,
    handle_child_failure,
    run_parent_loop,
)
from agentfork.skills import SkillLibrary

from conftest import DIM

QUIET = ComplexityMetrics(2, 6, 1, 0.2, 0.5)
SPIKE = ComplexityMetrics(17, 40, 85, 0.97, 8)


def _decision(spec=Specialization.CONTEXT_COMPRESSION):
    return SpawnDecision(SpawnAction.SPAWN, spec, 0.85, (0.8, 0.8, 0.8, 0.97, 0.8))


def _package(spawn_id):
    return build_spawn_package(
        "parent",
        TaskSpec(description="do the work"),
        MemorySlice((), 0, 0.5),
        (),
        ExecutionContext(repo_path="repo"),
        QUIET,
        0.85,
        clock=0.0,
        id_source=lambda: spawn_id,
    )


def _scheduler(outcomes, **config_kwargs):
    config = RuntimeConfig(**config_kwargs)
    clock = VirtualClock()
    root = AgentId("parent", 0)
    tree = SpawnTree(root, config.max_depth, config.concurrent_limit)
    events: list[Event] = []
    scheduler = ChildScheduler(tree, clock, config, ScriptedBackend(outcomes), events)
    return scheduler, root, tree, clock, events


def test_virtual_clock_never_goes_backwards():
    clock = VirtualClock()
    clock.advance(5.0)
    clock.advance_to(9.0)
    assert clock.now == 9.0
    with pytest.raises(OrchestrationError):
        clock.advance_to(1.0)
    with pytest.raises(OrchestrationError):
        clock.advance(-1.0)


def test_tree_enforces_depth_and_duplicates():
    root = AgentId("r", 0)
    tree = SpawnTree(root, max_depth=2, concurrent_limit=4)
    tree.add_child("r", AgentId("a", 1))
    tree.add_child("a", AgentId("b", 2))
    with pytest.raises(SpawnTreeError):
        tree.add_child("b", AgentId("c", 3))
    with pytest.raises(SpawnTreeError):
        tree.add_child("r", AgentId("a", 1))
    with pytest.raises(SpawnTreeError):
        tree.add_child("r", AgentId("d", 2))


def test_tree_counts_only_running_children():
    root = AgentId("r", 0)
    tree = SpawnTree(root, max_depth=3, concurrent_limit=2)
    tree.add_child("r", AgentId("a", 1))
    tree.add_child("r", AgentId("b", 1))
    assert tree.running_children("r") == 2
    tree.mark("a", NodeStatus.DONE)
    assert tree.running_children("r") == 1


def test_scripted_backend_deterministic_given_package_and_seed():
    backend = ScriptedBackend({"k": ScriptedOutcome(output="scripted")})
    pkg = _package("spawn-0001")
    assert backend.run(pkg, 3, "k") == backend.run(pkg, 3, "k")
    missing = backend.run(pkg, 3, "unknown-key")
    assert missing.status is ChildStatus.FAILURE


def test_scripted_backend_resume_is_internally_consistent():
    diff = Diff(file="f.py", hunks=(Hunk(1, (), ("x",)),))
    backend = ScriptedBackend({"k": ScriptedOutcome(diffs=(diff,))})
    resume = backend.run(_package("spawn-0001"), 0, "k")
    assert resume.result.files_modified == {"f.py"}
    assert [a.step for a in resume.trace] == sorted(a.step for a in resume.trace)


def test_spawn_child_registers_running_child():
    scheduler, root, tree, clock, events = _scheduler({"k": ScriptedOutcome()})
    outcome = scheduler.spawn_child(root, _decision(), _package("spawn-0001"), outcome_key="k")
    assert outcome.state == "started"
    assert tree.status["spawn-0001"] is NodeStatus.RUNNING


def test_spawn_child_rejects_depth_violation():
    scheduler, root, tree, clock, events = _scheduler({"k": ScriptedOutcome()})
    deep = AgentId("deep", 3)
    tree.nodes["deep"] = deep
    tree.children["deep"] = []
    tree.status["deep"] = NodeStatus.RUNNING
    tree.children[root.id].append("deep")
    outcome = scheduler.spawn_child(deep, _decision(), _package("spawn-0009"), outcome_key="k")
    assert outcome.state == "rejected"
    assert "depth" in outcome.reason
    assert any(e.kind == "spawn_rejected" for e in events)


def test_fifth_request_queues_and_starts_after_completion():
    scheduler, root, tree, clock, events = _scheduler(
        {"k": ScriptedOutcome(execution_time=10.0)}
    )
    outcomes = [
        scheduler.spawn_child(root, _decision(), _package(f"spawn-{n:04d}"), outcome_key="k")
        for n in range(1, 6)
    ]
    assert [o.state for o in outcomes] == ["started"] * 4 + ["queued"]
    assert tree.running_children(root.id) == 4
    results = scheduler.await_children()
    assert len(results) == 5
    assert tree.status["spawn-0005"] is NodeStatus.DONE
    started_after = [e for e in events if e.kind == "queue_admitted"]
    assert len(started_after) == 1


def test_await_children_timeout_boundary():
    scheduler, root, tree, clock, events = _scheduler(
        {
            "slow": ScriptedOutcome(execution_time=700.0),
            "fast": ScriptedOutcome(execution_time=10.0),
        },
        child_timeout=600.0,
    )
    scheduler.spawn_child(root, _decision(), _package("spawn-slow"), outcome_key="slow")
    scheduler.spawn_child(root, _decision(), _package("spawn-fast"), outcome_key="fast")
    results = {r.handle.spawn_id: r for r in scheduler.await_children()}
    assert results["spawn-fast"].kind == "ok"
    assert results["spawn-slow"].kind == "timeout"
    assert tree.status["spawn-slow"] is NodeStatus.TIMED_OUT
    assert clock.now == pytest.approx(600.0)


def test_await_children_flags_invalid_results():
    class WrongIdBackend:
        def run(self, package, seed, outcome_key=""):
            good = ScriptedBackend({"k": ScriptedOutcome()}).run(package, seed, "k")
            return ResumePackage(
                spawn_id="someone-else",
                status=good.status,
                execution_time=good.execution_time,
                result=good.result,
                trace=good.trace,
                skills_learned=good.skills_learned,
                metrics=good.metrics,
            )

    config = RuntimeConfig()
    clock = VirtualClock()
    root = AgentId("parent", 0)
    tree = SpawnTree(root, config.max_depth, config.concurrent_limit)
    scheduler = ChildScheduler(tree, clock, config, WrongIdBackend(), [])
    scheduler.spawn_child(root, _decision(), _package("spawn-0001"), outcome_key="k")
    results = scheduler.await_children()
    assert results[0].kind == "invalid"
    assert any("wrong child" in e for e in results[0].errors)
    assert tree.status["spawn-0001"] is NodeStatus.FAILED


def test_nested_requests_follow_scripts():
    scheduler, root, tree, clock, events = _scheduler(
        {
            "k": ScriptedOutcome(execution_time=20.0, spawns=(NestedSpawn(outcome_key="leaf"),)),
            "leaf": ScriptedOutcome(execution_time=5.0),
        }
    )
    scheduler.spawn_child(root, _decision(), _package("child-a"), outcome_key="k")
    scheduler.await_children()
    assert tree.max_observed_depth() == 2
    assert len(tree.nodes) == 3


def test_handle_child_failure_records_episodic_items(embedder):
    store = MemoryStore(DIM, current_step=4)
    state = ParentState(memory=store, skills=SkillLibrary())
    handle_child_failure(state, ChildFailure("spawn-0001", "timeout", "exceeded 600s"), embedder)
    handle_child_failure(state, ChildFailure("spawn-0002", "invalid", "wrong child"), embedder)
    episodic = store.by_tier(MemoryTier.EPISODIC)
    assert len(episodic) == 2
    assert {i.id for i in episodic} == {"spawn-0001:failure", "spawn-0002:failure"}
    assert all(i.created_at_step == 4 for i in episodic)


def test_service_backend_round_trips_packages():
    def fake_transport(payload: bytes) -> bytes:
        package = decode_package(payload)
        resume = ScriptedBackend({"d": ScriptedOutcome(output="served")}).run(package, 0, "d")
        return encode_package(resume)

    backend = ServiceBackend(fake_transport)
    resume = backend.run(_package("spawn-0042"), seed=0)
    assert resume.spawn_id == "spawn-0042"
    assert resume.result.output == "served"


def test_service_backend_rejects_wrong_package_kind():
    backend = ServiceBackend(lambda payload: payload)
    with pytest.raises(OrchestrationError):
        backend.run(_package("spawn-0001"), seed=0)


def _loop_setup(trajectory, outcomes, seed=0, item_count=12, **kwargs):
    embedder = DefaultEmbedder(DIM)
    store = MemoryStore(DIM)
    for i in range(item_count):
        store.add(
            make_item(
                f"m{i}", MemoryTier.SEMANTIC, "parser json header block", embedder,
                referenced_files={"src/a.py"},
            )
        )
    workload = LoopWorkload(
        task=TaskSpec(description="parser json header block", referenced_files=frozenset({"src/a.py"})),
        store=store,
        skills=SkillLibrary(),
        files={"src/a.py": ["original line"]},
        trajectory=trajectory,
    )
    config = LoopConfig(
        policy=SpawnPolicyConfig(),
        runtime=RuntimeConfig(seed=seed, **kwargs),
        relevance=RelevanceWeights(),
        embedder=embedder,
    )
    return workload, config


class _OverlappingDiffsBackend:
    """A child that returns two diffs rewriting the same line of one file."""

    def run(self, package, seed, outcome_key=""):
        diff = Diff("src/a.py", (Hunk(1, ("original line",), ("rewritten",)),))
        return ResumePackage(
            spawn_id=package.spawn_id,
            status=ChildStatus.SUCCESS,
            execution_time=2.0,
            result=ResultPayload(output="edited twice", code_diff=(diff, diff), files_modified={"src/a.py"}),
            metrics=ChildMetrics(tokens_used=10, api_calls=1, test_pass_rate=1.0),
        )


def test_loop_records_child_with_overlapping_diffs_as_invalid():
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    result = run_parent_loop(workload.task, config, _OverlappingDiffsBackend(), workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "invalid"
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "overlap" in invalid[0].detail
    assert result.state.files == {"src/a.py": ["original line"]}


def test_loop_without_spikes_never_spawns():
    workload, config = _loop_setup([QUIET] * 6, {})
    result = run_parent_loop(workload.task, config, ScriptedBackend({}), workload)
    assert result.status == "completed"
    assert result.spawn_records == []
    assert len(result.tree.nodes) == 1


def test_loop_single_spike_spawns_one_context_compression_child():
    trajectory = [QUIET, QUIET, QUIET, SPIKE, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=30.0, test_pass_rate=0.9)}
    workload, config = _loop_setup(trajectory, outcomes)
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert len(result.spawn_records) == 1
    record = result.spawn_records[0]
    assert record.specialization == "context_compression"
    assert record.step == 3
    assert record.outcome == "success"
    assert result.tree.max_observed_depth() == 1


def test_loop_cooldown_suppresses_back_to_back_spawns():
    trajectory = [SPIKE, SPIKE, SPIKE, SPIKE, SPIKE, SPIKE, SPIKE]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=5.0)}
    workload, config = _loop_setup(trajectory, outcomes)
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    # cooldown is 5 steps: spawns land on steps 0, 5 only
    assert [r.step for r in result.spawn_records] == [0, 5]


def test_loop_seeded_rerun_is_identical():
    trajectory = [QUIET, SPIKE, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=12.0)}

    def run():
        workload, config = _loop_setup(trajectory, outcomes, seed=9)
        result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
        return result.event_lines(), [(r.spawn_id, r.outcome) for r in result.spawn_records]

    assert run() == run()


def test_loop_applies_child_diff_to_parent_files():
    diff = Diff(file="src/a.py", hunks=(Hunk(1, ("original line",), ("patched line",)),))
    outcomes = {"context_compression": ScriptedOutcome(execution_time=3.0, diffs=(diff,))}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes)
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.state.files["src/a.py"] == ["patched line"]
    assert len(result.merge_outcomes) == 1


def test_loop_records_timeout_and_completes():
    outcomes = {"context_compression": ScriptedOutcome(execution_time=700.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, child_timeout=600.0)
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "timed_out"
    failure_items = [
        i for i in result.state.memory.by_tier(MemoryTier.EPISODIC) if i.id.endswith(":failure")
    ]
    assert len(failure_items) == 1


def test_loop_nonblocking_mode_joins_at_step_boundaries():
    trajectory = [QUIET, SPIKE, QUIET, QUIET, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup(trajectory, outcomes, parent_blocks=False)
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.spawn_records[0].outcome == "success"
    assert result.status == "completed"


def test_checkpoint_dir_writes_spawn_and_resume_files(tmp_path):
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, checkpoint_dir=str(tmp_path))
    run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    spawn_files = sorted(p.name for p in tmp_path.glob("spawn_*.json"))
    resume_files = sorted(p.name for p in tmp_path.glob("resume_*.json"))
    assert spawn_files == ["spawn_spawn-0001.json"]
    assert resume_files == ["resume_spawn-0001.json"]
    decoded = decode_package((tmp_path / spawn_files[0]).read_bytes())
    assert decoded.spawn_id == "spawn-0001"


def test_service_backend_from_env(monkeypatch):
    monkeypatch.delenv("AGENTFORK_SERVICE_ENDPOINT", raising=False)
    with pytest.raises(OrchestrationError):
        ServiceBackend.from_env()
    monkeypatch.setenv("AGENTFORK_SERVICE_ENDPOINT", "http://127.0.0.1:1/run")
    monkeypatch.setenv("AGENTFORK_SERVICE_TOKEN", "secret")
    backend = ServiceBackend.from_env()
    assert callable(backend.transport)


def test_http_transport_posts_package_and_reads_resume():
    import http.server
    import threading

    from agentfork.runtime import http_transport

    received = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = self.rfile.read(length)
            received["auth"] = self.headers.get("Authorization")
            package = decode_package(payload)
            resume = ScriptedBackend({"d": ScriptedOutcome(output="over http")}).run(package, 0, "d")
            body = encode_package(resume)
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/run"
        backend = ServiceBackend(http_transport(endpoint, token="tok"))
        resume = backend.run(_package("spawn-0077"), seed=0)
        assert resume.spawn_id == "spawn-0077"
        assert resume.result.output == "over http"
        assert received["auth"] == "Bearer tok"
    finally:
        server.shutdown()
        thread.join(timeout=5)
