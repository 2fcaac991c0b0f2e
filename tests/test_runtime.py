from __future__ import annotations

import http.server
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from agentfork import runtime
from agentfork.coherence import Diff, Hunk
from agentfork.memory import (
    DefaultEmbedder,
    MemoryStore,
    MemoryTier,
    RelevanceWeights,
    count_tokens,
    make_item,
)
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
    http_transport,
    run_parent_loop,
)
from agentfork.skills import SkillLibrary

from conftest import DIM

QUIET = ComplexityMetrics(2, 6, 1, 0.2, 0.5)
SPIKE = ComplexityMetrics(17, 40, 85, 0.97, 8)


def _decision(spec=Specialization.CONTEXT_COMPRESSION):
    return SpawnDecision(SpawnAction.SPAWN, spec, 0.85, (0.8, 0.8, 0.8, 0.97, 0.8))


def _package(spawn_id, parent_id="parent"):
    return build_spawn_package(
        parent_id,
        TaskSpec(description="do the work"),
        MemorySlice((), 0, 0.5),
        (),
        ExecutionContext(repo_path="repo"),
        QUIET,
        0.85,
        clock=0.0,
        id_source=lambda: spawn_id,
    )


def _scheduler(outcomes, backend=None, max_depth=3, concurrent_limit=4, **config_kwargs):
    config = RuntimeConfig(**config_kwargs)
    clock = VirtualClock()
    root = AgentId("parent", 0)
    tree = SpawnTree(root, max_depth, concurrent_limit)
    events: list[Event] = []
    scheduler = ChildScheduler(tree, clock, config, backend or ScriptedBackend(outcomes), events)
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
    with pytest.raises(SpawnTreeError):
        tree.add_child("r", AgentId("c", 1))
    assert "c" not in tree.nodes
    tree.mark("a", NodeStatus.DONE)
    assert tree.running_children("r") == 1
    with pytest.raises(SpawnTreeError):
        tree.mark("a", NodeStatus.RUNNING)
    tree.add_child("r", AgentId("c", 1))
    assert tree.running_children("r") == 2


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
    tree.add_child(root.id, AgentId("a", 1))
    tree.add_child("a", AgentId("b", 2))
    deep = AgentId("deep", 3)
    tree.add_child("b", deep)
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


# Scripted children for the scheduler property: "slow" outlives the
# 600 s timeout and "nest" asks for two children of its own.
_PROPERTY_OUTCOMES = {
    "short": ScriptedOutcome(execution_time=3.0),
    "long": ScriptedOutcome(execution_time=20.0),
    "slow": ScriptedOutcome(execution_time=700.0),
    "nest": ScriptedOutcome(
        execution_time=10.0, spawns=(NestedSpawn(outcome_key="short"), NestedSpawn(outcome_key="long"))
    ),
}
class _SchedulerMachine(RuleBasedStateMachine):
    """Random spawn and advance steps against ``ChildScheduler`` and
    ``SpawnTree``. After every step no node is deeper than the depth
    limit, none runs more children than the concurrency limit, and each
    parent's children have started in the order they were requested.
    At the end the scheduler drains to idle, every request was started,
    queued or (exactly when too deep) rejected, and every request that
    was not rejected has started."""

    @initialize(max_depth=st.integers(1, 3), limit=st.integers(1, 3))
    def setup(self, max_depth, limit):
        self.max_depth, self.limit = max_depth, limit
        self.scheduler, _, self.tree, self.clock, self.events = _scheduler(
            _PROPERTY_OUTCOMES, max_depth=max_depth, concurrent_limit=limit
        )
        # [parent, spawn id, state] per request in call order, nested ones included.
        self.requests = []
        spawn_child = self.scheduler.spawn_child

        def recording_spawn_child(parent, decision, package, outcome_key=None):
            request = [parent, package.spawn_id, None]
            self.requests.append(request)
            outcome = spawn_child(parent, decision, package, outcome_key)
            request[2] = outcome.state
            return outcome

        self.scheduler.spawn_child = recording_spawn_child

    @rule(pick=st.integers(0, 10**6), key=st.sampled_from(sorted(_PROPERTY_OUTCOMES)))
    def spawn(self, pick, key):
        nodes = list(self.tree.nodes.values())
        parent = nodes[pick % len(nodes)]
        package = _package(self.scheduler.next_id(), parent.id)
        self.scheduler.spawn_child(parent, _decision(), package, outcome_key=key)

    @rule(seconds=st.floats(0.5, 50.0))
    def advance(self, seconds):
        self.clock.advance(seconds)
        self.scheduler.await_children(until=self.clock.now)

    def _started(self) -> dict[str, list[str]]:
        started: dict[str, list[str]] = {}
        for event in self.events:
            if event.kind == "child_started":
                spawn_id, parent_field = event.detail.split()[:2]
                started.setdefault(parent_field.removeprefix("parent="), []).append(spawn_id)
        return started

    def _requested(self) -> dict[str, list[str]]:
        requested: dict[str, list[str]] = {}
        for parent, spawn_id, state in self.requests:
            if state != "rejected":
                requested.setdefault(parent.id, []).append(spawn_id)
        return requested

    @invariant()
    def limits_hold(self):
        for node in self.tree.nodes.values():
            assert node.depth <= self.max_depth
            assert self.tree.running_children(node.id) <= self.limit

    @invariant()
    def children_start_in_request_order(self):
        requested = self._requested()
        for parent_id, started in self._started().items():
            assert started == requested[parent_id][: len(started)]

    def teardown(self):
        self.scheduler.await_children()
        self.limits_hold()
        assert self.scheduler.idle()
        for parent, spawn_id, state in self.requests:
            assert state in ("started", "queued", "rejected")
            assert (state == "rejected") == (parent.depth + 1 > self.max_depth)
        assert self._started() == self._requested()


def test_scheduler_keeps_limits_and_per_parent_fifo():
    run_state_machine_as_test(
        _SchedulerMachine, settings=settings(max_examples=60, stateful_step_count=40, deadline=None)
    )


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

    scheduler, root, tree, clock, events = _scheduler({}, backend=WrongIdBackend())
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


def test_loop_records_backend_exception_as_invalid_child():
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    backend = ServiceBackend(lambda payload: b'{"status": 1}')
    result = run_parent_loop(workload.task, config, backend, workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "invalid"
    started = [e for e in result.events if e.kind == "child_started"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "backend error: PackageDecodeError: " in invalid[0].detail
    assert invalid[0].time == started[0].time
    failures = [
        i for i in result.state.memory.by_tier(MemoryTier.EPISODIC) if i.id.endswith(":failure")
    ]
    assert len(failures) == 1 and "backend error" in failures[0].content
    assert result.tree.status[result.spawn_records[0].spawn_id] is NodeStatus.FAILED


class _ParentMemoryWriter:
    """A child that writes into its parent's memory store while it runs."""

    def __init__(self, store, write):
        self.store = store
        self.write = write

    def run(self, package, seed, outcome_key=""):
        self.write(self.store)
        return ScriptedBackend({"default": ScriptedOutcome()}).run(package, seed, outcome_key)


_WRITERS = {
    "add": lambda store: store.add(
        make_item("leak", MemoryTier.EPISODIC, "written by a child", DefaultEmbedder(DIM))
    ),
    "advance_to": lambda store: store.advance_to(store.current_step + 1),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_blocking_loop_rejects_child_that_mutates_parent_memory(writer):
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    backend = _ParentMemoryWriter(workload.store, _WRITERS[writer])
    with pytest.raises(OrchestrationError, match="parent memory mutated while children ran"):
        run_parent_loop(workload.task, config, backend, workload)


def test_blocking_loop_accepts_child_that_advances_parent_to_its_own_step():
    # Same-step advance_to changes no content, so it is not a mutation.
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    backend = _ParentMemoryWriter(workload.store, lambda store: store.advance_to(store.current_step))
    result = run_parent_loop(workload.task, config, backend, workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["success"]


def test_blocking_fork_path_neither_hashes_nor_recounts_the_parent_store(monkeypatch):
    def refuse(self):
        raise AssertionError("content_digest is O(N) and has no place on the fork path")

    counted = []

    def counting(items):
        items = list(items)
        counted.append(len(items))
        return count_tokens(items)

    monkeypatch.setattr(MemoryStore, "content_digest", refuse)
    monkeypatch.setattr(runtime, "count_tokens", counting)
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    trajectory = [SPIKE, QUIET, QUIET, QUIET, QUIET] * 2 + [SPIKE]
    workload, config = _loop_setup(trajectory, outcomes)
    initial_tokens = count_tokens(workload.store.items())
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["success"] * 3
    # Only the slices are counted; the parent's total is the store's running count.
    assert counted == [r.items_slice for r in result.spawn_records]
    assert result.spawn_records[0].tokens_parent == initial_tokens
    assert result.state.memory.token_count == count_tokens(result.state.memory.items())


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


@pytest.mark.parametrize("case", ["nan_metric", "dir_is_file"])
def test_failed_spawn_checkpoint_costs_the_child_not_the_parent(tmp_path, case):
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    if case == "nan_metric":
        # The spawn package carries the NaN reading, which JSON cannot hold.
        nan_spike = ComplexityMetrics(17, 40, 85, 0.97, float("nan"))
        trajectory, checkpoint_dir, error = [QUIET, nan_spike, QUIET], tmp_path, "ValueError"
    else:
        checkpoint_dir = tmp_path / "taken"
        checkpoint_dir.write_text("a regular file")
        trajectory, error = [QUIET, SPIKE, QUIET], "FileExistsError"
    workload, config = _loop_setup(trajectory, outcomes, checkpoint_dir=str(checkpoint_dir))
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and f"backend error: {error}: " in invalid[0].detail
    assert result.tree.status[result.spawn_records[0].spawn_id] is NodeStatus.FAILED


def test_failed_resume_checkpoint_makes_the_child_invalid(tmp_path, monkeypatch):
    write = runtime.write_checkpoint

    def spawn_only(package, directory):
        if isinstance(package, ResumePackage):
            raise OSError("disk full")
        return write(package, directory)

    monkeypatch.setattr(runtime, "write_checkpoint", spawn_only)
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, checkpoint_dir=str(tmp_path))
    result = run_parent_loop(workload.task, config, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "checkpoint error: OSError: disk full" in invalid[0].detail
    assert [p.name for p in tmp_path.iterdir()] == ["spawn_spawn-0001.json"]


def test_service_backend_from_env(monkeypatch):
    monkeypatch.delenv("AGENTFORK_SERVICE_ENDPOINT", raising=False)
    with pytest.raises(OrchestrationError):
        ServiceBackend.from_env(timeout=1.0)
    monkeypatch.setenv("AGENTFORK_SERVICE_ENDPOINT", "http://127.0.0.1:1/run")
    monkeypatch.setenv("AGENTFORK_SERVICE_TOKEN", "secret")
    seen = {}

    def fake_urlopen(request, timeout):
        seen.update(auth=request.get_header("Authorization"), timeout=timeout)
        raise OSError("no service")

    monkeypatch.setattr(runtime.urllib.request, "urlopen", fake_urlopen)
    backend = ServiceBackend.from_env(timeout=RuntimeConfig().child_timeout)
    with pytest.raises(OSError):
        backend.transport(b"{}")
    assert seen == {"auth": "Bearer secret", "timeout": 600.0}


def test_http_transport_posts_package_and_reads_resume():
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
        backend = ServiceBackend(http_transport(endpoint, token="tok", timeout=5.0))
        resume = backend.run(_package("spawn-0077"), seed=0)
        assert resume.spawn_id == "spawn-0077"
        assert resume.result.output == "over http"
        assert received["auth"] == "Bearer tok"
    finally:
        server.shutdown()
        thread.join(timeout=5)


def test_http_transport_timeout_turns_a_silent_service_into_an_invalid_child():
    answer = threading.Event()

    class SlowHandler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            package = decode_package(self.rfile.read(int(self.headers["Content-Length"])))
            body = encode_package(ScriptedBackend({"d": ScriptedOutcome()}).run(package, 0, "d"))
            answer.wait(2.0)  # a service that takes 2 s to answer
            try:
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except OSError:
                pass  # the client gave up

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/run"
        backend = ServiceBackend(http_transport(endpoint, None, timeout=0.2))
        workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
        started = time.monotonic()
        result = run_parent_loop(workload.task, config, backend, workload)
        elapsed = time.monotonic() - started
    finally:
        answer.set()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()
    assert elapsed < 1.5
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "backend error: " in invalid[0].detail
    assert "timed out" in invalid[0].detail


def _mutated(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for position, value in edits:
        out[position % len(out)] = value
    return bytes(out)


def _replaced(node, path, value):
    """``node`` with the value that ``path`` leads to (each step taken
    modulo the number of keys or elements) replaced by ``value``, or by
    ``value(old)`` when ``value`` is callable."""
    if not path or not isinstance(node, (dict, list)) or not node:
        return value(node) if callable(value) else value
    key = (sorted(node) if isinstance(node, dict) else range(len(node)))[path[0] % len(node)]
    node[key] = _replaced(node[key], path[1:], value)
    return node


def _same_type(number, real, text):
    """A replacement that keeps the JSON type of the value it replaces."""

    def pick(old):
        if isinstance(old, bool) or old is None:
            return old
        if isinstance(old, int):
            return number
        if isinstance(old, float):
            return real
        if isinstance(old, str):
            return text
        if isinstance(old, dict):
            return dict(list(old.items())[:-1])
        return old[:-1]

    return pick


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10 ** 6), 10 ** 6) | st.floats(allow_nan=False) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_JSON_BYTES = st.sampled_from(b'0123456789-.eE"{}[],: atrue')

# Each junk source maps the valid encoding of the child's resume package
# to the bytes the fake service returns.
_RESUME_JUNK = st.one_of(
    st.builds(lambda n: lambda valid: valid[: n % len(valid)], st.integers(0, 10 ** 6)),
    st.builds(
        lambda edits: lambda valid: _mutated(valid, edits),
        st.lists(
            st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255) | _JSON_BYTES), min_size=1, max_size=4
        ),
    ),
    st.builds(
        lambda path, value: lambda valid: json.dumps(_replaced(json.loads(valid), path, value)).encode(),
        st.lists(st.integers(0, 100), min_size=1, max_size=6),
        _JSON_VALUES,
    ),
    st.builds(
        lambda path, pick: lambda valid: json.dumps(_replaced(json.loads(valid), path, pick)).encode(),
        st.lists(st.integers(0, 100), min_size=1, max_size=6),
        st.builds(
            _same_type,
            st.integers(-3, 10 ** 4),
            st.floats(-1.0, 10 ** 4),
            st.sampled_from(["", "spawn-0001", "spawn-0002", "failure", "partial", "src/a.py", "edit"]) | st.text(max_size=8),
        ),
    ),
    st.builds(lambda value: lambda valid: json.dumps(value).encode(), _JSON_VALUES),
    st.builds(lambda raw: lambda valid: raw, st.binary(max_size=200)),
)


@settings(max_examples=150, deadline=None)
@given(junk=_RESUME_JUNK)
def test_loop_survives_any_resume_package_bytes(junk):
    diff = Diff("src/a.py", (Hunk(1, ("original line",), ("patched",)),))
    outcomes = {"d": ScriptedOutcome(execution_time=2.0, diffs=(diff,))}

    def fake_transport(payload: bytes) -> bytes:
        valid = encode_package(ScriptedBackend(outcomes).run(decode_package(payload), 0, "d"))
        return junk(valid)

    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes)
    result = run_parent_loop(workload.task, config, ServiceBackend(fake_transport), workload)
    assert result.status == "completed"
    [record] = result.spawn_records
    kinds = {e.kind for e in result.events if e.detail.startswith(record.spawn_id + " ")}
    # A package that decodes but reports more time than the child timeout
    # allows (a mutated execution_time) is a recorded timeout.
    assert (
        record.outcome in ("success", "partial", "failure")
        or (record.outcome == "invalid" and "child_invalid" in kinds)
        or (record.outcome == "timed_out" and "child_timed_out" in kinds)
    )
