from __future__ import annotations

import http.server
import itertools
import json
import socketserver
import sys
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

from agentfork import memory, runtime, service
from agentfork.coherence import Diff, Hunk
from agentfork.config import SimulatorConfig
from agentfork.harness import (
    bundled_workload_path,
    emit_report,
    list_bundled_workloads,
    load_workload,
    run_simulation,
)
from agentfork.harness.workload import workload_from_data
from agentfork.memory import DefaultEmbedder, MemoryStore, MemoryTier, count_tokens, make_item
from agentfork.policy import ComplexityMetrics
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
    ChildOutcome,
    ChildScheduler,
    Event,
    LoopWorkload,
    NestedSpawn,
    OrchestrationError,
    ScriptedBackend,
    ScriptedOutcome,
    SpawnTree,
    SpawnTreeError,
    VirtualClock,
    handle_child_failure,
    run_parent_loop,
)
from agentfork.service import ServiceBackend, http_transport
from agentfork.skills import SkillLibrary

from conftest import DIM, tier_items

QUIET = ComplexityMetrics(2, 6, 1, 0.2, 0.5)
SPIKE = ComplexityMetrics(17, 40, 85, 0.97, 8)


def _package(spawn_id, parent_id="parent"):
    return build_spawn_package(
        parent_id,
        TaskSpec(description="do the work"),
        MemorySlice(items=(), tokens=0),
        (),
        ExecutionContext(repo_path="repo"),
        QUIET,
        0.85,
        timestamp=0.0,
        id_source=lambda: spawn_id,
    )


def _scheduler(outcomes, backend=None, max_depth=3, concurrent_limit=4, **config_kwargs):
    config = SimulatorConfig(**config_kwargs)
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
    tree.mark("a")
    assert tree.running_children("r") == 1
    with pytest.raises(SpawnTreeError):
        tree.mark("a")
    with pytest.raises(SpawnTreeError):
        tree.mark("r")
    assert tree.running_children("r") == 1
    tree.add_child("r", AgentId("c", 1))
    assert tree.running_children("r") == 2


# One tree call per entry. ("add", parent pick, fresh id, depth step):
# a pick past the node list names an unknown parent, a reused id is a
# duplicate and a depth step other than 1 is a wrong depth. ("mark", node
# pick): a pick past the list names an unknown node.
_TREE_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 10**6), st.booleans(), st.sampled_from([1, 1, 1, 0, 2])),
        st.tuples(st.just("mark"), st.integers(0, 10**6)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(calls=_TREE_CALLS, max_depth=st.integers(1, 3), limit=st.integers(1, 3))
def test_tree_running_counts_match_a_recount(calls, max_depth, limit):
    """The counts ``add_child`` and ``mark`` keep equal a recount from
    ``children`` and the ids marked so far after every call, those that
    raise too. Marking a finished child raises."""
    tree = SpawnTree(AgentId("r", 0), max_depth, limit)
    finished: set[str] = set()
    for n, call in enumerate(calls):
        nodes = list(tree.nodes.values())
        pick = call[1] % (len(nodes) + 1)
        node = nodes[pick] if pick < len(nodes) else AgentId("ghost", 0)
        try:
            if call[0] == "add":
                _, _, fresh, step = call
                child_id = f"n{n}" if fresh else nodes[call[1] % len(nodes)].id
                tree.add_child(node.id, AgentId(child_id, node.depth + step))
            elif node.id in finished:
                with pytest.raises(SpawnTreeError):
                    tree.mark(node.id)
            else:
                tree.mark(node.id)
                finished.add(node.id)
        except SpawnTreeError:
            pass
        for node_id in tree.nodes:
            recount = sum(c not in finished for c in tree.children[node_id])
            assert tree.running_children(node_id) == recount
            assert recount <= limit


def test_scripted_backend_deterministic_given_package_and_seed():
    backend = ScriptedBackend({"k": ScriptedOutcome(output="scripted")})
    pkg = _package("spawn-0001")
    assert backend.run(pkg, "k") == backend.run(pkg, "k")
    missing = backend.run(pkg, "unknown-key")
    assert missing.status is ChildStatus.FAILURE


def test_scripted_backend_resume_is_internally_consistent():
    diff = Diff(file="f.py", hunks=(Hunk(1, (), ("x",)),))
    backend = ScriptedBackend({"k": ScriptedOutcome(diffs=(diff,))})
    resume = backend.run(_package("spawn-0001"), "k")
    assert resume.result.files_modified == {"f.py"}
    assert [a.step for a in resume.trace] == sorted(a.step for a in resume.trace)


def test_spawn_child_registers_running_child():
    scheduler, root, tree, clock, events = _scheduler({"k": ScriptedOutcome()})
    outcome = scheduler.spawn_child(root, _package("spawn-0001"), "k")
    assert outcome.state == "started"
    assert tree.parent == {"spawn-0001": root.id}
    assert tree.running_children(root.id) == 1


def test_spawn_child_rejects_depth_violation():
    scheduler, root, tree, clock, events = _scheduler({"k": ScriptedOutcome()})
    tree.add_child(root.id, AgentId("a", 1))
    tree.add_child("a", AgentId("b", 2))
    deep = AgentId("deep", 3)
    tree.add_child("b", deep)
    outcome = scheduler.spawn_child(deep, _package("spawn-0009"), "k")
    assert outcome.state == "rejected"
    assert "depth" in outcome.reason
    assert any(e.kind == "spawn_rejected" for e in events)


def test_fifth_request_queues_and_starts_after_completion():
    scheduler, root, tree, clock, events = _scheduler(
        {"k": ScriptedOutcome(execution_time=10.0)}
    )
    outcomes = [
        scheduler.spawn_child(root, _package(f"spawn-{n:04d}"), "k")
        for n in range(1, 6)
    ]
    assert [o.state for o in outcomes] == ["started"] * 4 + ["queued"]
    assert tree.running_children(root.id) == 4
    results = scheduler.await_children()
    assert len(results) == 5
    assert results[-1].spawn_id == "spawn-0005"
    assert results[-1].outcome is ChildOutcome.SUCCESS
    assert tree.running_children(root.id) == 0
    started_after = [e for e in events if e.kind == "queue_admitted"]
    assert len(started_after) == 1


# Scripted children for the scheduler property: "slow" outlives the
# 600 s timeout, "nest" asks for two children of its own and "loop" asks
# for another "loop", so its chain grows until the depth limit rejects it.
_PROPERTY_OUTCOMES = {
    "loop": ScriptedOutcome(execution_time=5.0, spawns=(NestedSpawn(outcome_key="loop"),)),
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

        def recording_spawn_child(parent, package, outcome_key):
            request = [parent, package.spawn_id, None]
            self.requests.append(request)
            outcome = spawn_child(parent, package, outcome_key)
            request[2] = outcome.state
            return outcome

        self.scheduler.spawn_child = recording_spawn_child

    @rule(pick=st.integers(0, 10**6), key=st.sampled_from(sorted(_PROPERTY_OUTCOMES)))
    def spawn(self, pick, key):
        nodes = list(self.tree.nodes.values())
        parent = nodes[pick % len(nodes)]
        package = _package(self.scheduler.next_id(), parent.id)
        self.scheduler.spawn_child(parent, package, key)

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
        assert not self.scheduler.running and not self.scheduler.queue
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
        child_timeout_secs=600.0,
    )
    scheduler.spawn_child(root, _package("spawn-slow"), "slow")
    scheduler.spawn_child(root, _package("spawn-fast"), "fast")
    results = {h.spawn_id: h for h in scheduler.await_children()}
    assert results["spawn-fast"].outcome is ChildOutcome.SUCCESS
    assert results["spawn-slow"].outcome is ChildOutcome.TIMED_OUT
    assert tree.running_children(root.id) == 0
    assert clock.now == pytest.approx(600.0)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(
        st.one_of(st.sampled_from([1.0, 2.5, 600.0, 700.0]), st.floats(0.0, 900.0)), min_size=1, max_size=60
    ),
    polls=st.lists(st.floats(0.0, 700.0), max_size=4),
    data=st.data(),
)
def test_await_children_returns_handles_in_completion_order(times, polls, data):
    """Many children at once, with tied completion times and timeouts:
    every ``await_children`` call, polling or draining, returns its
    handles in ``(done_at, spawn_id)`` order."""
    scheduler, root, tree, clock, events = _scheduler(
        {f"k{n}": ScriptedOutcome(execution_time=t) for n, t in enumerate(times)},
        concurrent_limit=100,
        child_timeout_secs=600.0,
    )
    # Spawn ids in a random order, so start order is not completion order.
    order = data.draw(st.permutations(range(len(times))))
    for n, t in enumerate(times):
        assert scheduler.spawn_child(root, _package(f"spawn-{order[n]:04d}"), f"k{n}").state == "started"
    expected = sorted((min(t, 600.0), f"spawn-{order[n]:04d}") for n, t in enumerate(times))
    returned = []
    for until in sorted(polls):
        batch = [(h.done_at, h.spawn_id) for h in scheduler.await_children(until=until)]
        assert batch == expected[len(returned) : len(returned) + len(batch)]
        returned += batch
        assert all(done_at <= until for done_at, _ in batch)
        assert len(returned) == len(expected) or expected[len(returned)][0] > until
    returned += [(h.done_at, h.spawn_id) for h in scheduler.await_children()]
    assert returned == expected
    assert not scheduler.running and not scheduler.queue and clock.now == expected[-1][0]


def test_await_children_flags_invalid_results():
    class WrongIdBackend:
        def run(self, package, outcome_key=""):
            good = ScriptedBackend({"k": ScriptedOutcome()}).run(package, "k")
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
    scheduler.spawn_child(root, _package("spawn-0001"), "k")
    results = scheduler.await_children()
    assert results[0].outcome is ChildOutcome.INVALID
    assert any("wrong child" in e for e in results[0].errors)
    assert tree.running_children(root.id) == 0


def test_lying_child_leaves_the_named_childs_resume_checkpoint_alone(tmp_path):
    """A child that returns another child's spawn id, and finishes after
    it, must not overwrite that child's resume checkpoint."""

    class LiarBackend:
        def run(self, package, outcome_key=""):
            if outcome_key == "honest":
                return ScriptedBackend({"honest": ScriptedOutcome(execution_time=1.0)}).run(package, "honest")
            return ResumePackage(
                spawn_id="spawn-0001",
                status=ChildStatus.SUCCESS,
                execution_time=5.0,
                result=ResultPayload(output="not the output of spawn-0001"),
            )

    scheduler, root, tree, clock, events = _scheduler({}, backend=LiarBackend(), checkpoint_dir=str(tmp_path))
    scheduler.spawn_child(root, _package("spawn-0001"), "honest")
    scheduler.spawn_child(root, _package("spawn-0002"), "liar")
    first = scheduler.await_children(until=1.0)
    assert [h.outcome for h in first] == [ChildOutcome.SUCCESS]
    honest = (tmp_path / "resume_spawn-0001.json").read_bytes()
    assert honest == encode_package(first[0].resume)
    (liar,) = scheduler.await_children()
    assert liar.outcome is ChildOutcome.INVALID
    assert any("wrong child" in e for e in liar.errors)
    assert (tmp_path / "resume_spawn-0001.json").read_bytes() == honest
    assert not (tmp_path / "resume_spawn-0002.json").exists()


def test_nested_requests_follow_scripts():
    scheduler, root, tree, clock, events = _scheduler(
        {
            "k": ScriptedOutcome(execution_time=20.0, spawns=(NestedSpawn(outcome_key="leaf"),)),
            "leaf": ScriptedOutcome(execution_time=5.0),
        }
    )
    scheduler.spawn_child(root, _package("child-a"), "k")
    scheduler.await_children()
    assert tree.max_observed_depth() == 2
    assert len(tree.nodes) == 3


def test_default_outcome_makes_its_nested_spawns():
    """A child served by the ``"default"`` script makes that script's
    spawns, as a child served by its own key does."""
    scheduler, root, tree, clock, events = _scheduler(
        {
            "default": ScriptedOutcome(execution_time=20.0, spawns=(NestedSpawn(outcome_key="leaf"),)),
            "leaf": ScriptedOutcome(execution_time=5.0),
        }
    )
    assert scheduler.backend.nested_requests("context_compression") == (NestedSpawn(outcome_key="leaf"),)
    scheduler.spawn_child(root, _package("child-a"), "context_compression")
    scheduler.await_children()
    assert tree.max_observed_depth() == 2
    assert len(tree.nodes) == 3


def test_nested_spawns_do_not_depend_on_the_callers_stack():
    """A child that spawns itself grows a chain down to the depth limit.
    Nested spawns are requested from an explicit stack, so the chain, and
    every report byte, is the same however deep the caller's stack is and
    whatever its recursion limit."""
    data = json.loads(bundled_workload_path("adversarial_depth").read_text(encoding="utf-8"))
    data["child_outcomes"]["nest-d4"]["spawns"] = [{"outcome": "nest-d4", "specialization": "refactoring"}]
    config = SimulatorConfig(max_spawn_depth=500)

    def run(frames=0):
        if frames:
            return run(frames - 1)
        return run_simulation(workload_from_data(data), config, 0)

    report = run()
    assert report.tree_max_depth == 500
    assert report.rejected_spawns == 1
    assert not [line for line in report.events if " child_invalid " in line]
    machine = emit_report(report, "machine")
    assert emit_report(run(500), "machine") == machine
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        lowered = emit_report(run(), "machine")
    finally:
        sys.setrecursionlimit(limit)
    assert lowered == machine


def test_handle_child_failure_records_episodic_items(embedder):
    store = MemoryStore(DIM, current_step=4)
    state = ParentState(memory=store, skills=SkillLibrary())
    handle_child_failure(state, "spawn-0001", "timeout", "exceeded 600s", embedder)
    handle_child_failure(state, "spawn-0002", "invalid", "wrong child", embedder)
    episodic = tier_items(store, MemoryTier.EPISODIC)
    assert len(episodic) == 2
    assert {i.id for i in episodic} == {"spawn-0001:failure", "spawn-0002:failure"}
    assert all(i.created_at_step == 4 for i in episodic)


def test_service_backend_round_trips_packages():
    def fake_transport(payload: bytes) -> bytes:
        package = decode_package(payload)
        resume = ScriptedBackend({"d": ScriptedOutcome(output="served")}).run(package, "d")
        return encode_package(resume)

    backend = ServiceBackend(fake_transport)
    resume = backend.run(_package("spawn-0042"))
    assert resume.spawn_id == "spawn-0042"
    assert resume.result.output == "served"


def test_service_backend_rejects_wrong_package_kind():
    backend = ServiceBackend(lambda payload: payload)
    with pytest.raises(OrchestrationError):
        backend.run(_package("spawn-0001"))


def _loop_setup(trajectory, outcomes, item_count=12, **config_kwargs):
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
    return workload, SimulatorConfig(**config_kwargs)


class _OverlappingDiffsBackend:
    """A child that returns two diffs rewriting the same line of one file."""

    def run(self, package, outcome_key=""):
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
    result = run_parent_loop(config, 0, _OverlappingDiffsBackend(), workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "invalid"
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "overlap" in invalid[0].detail
    assert result.state.files == {"src/a.py": ["original line"]}


def test_loop_records_backend_exception_as_invalid_child():
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    backend = ServiceBackend(lambda payload: b'{"status": 1}')
    result = run_parent_loop(config, 0, backend, workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "invalid"
    started = [e for e in result.events if e.kind == "child_started"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "backend error: PackageDecodeError: " in invalid[0].detail
    assert invalid[0].time == started[0].time
    failures = [
        i for i in tier_items(result.state.memory, MemoryTier.EPISODIC) if i.id.endswith(":failure")
    ]
    assert len(failures) == 1 and "backend error" in failures[0].content
    assert result.spawn_records[0].spawn_id in result.tree.nodes
    assert result.tree.running_children(result.tree.root.id) == 0


class _ParentMemoryWriter:
    """A child that writes into its parent's memory store while it runs."""

    def __init__(self, store, write):
        self.store = store
        self.write = write

    def run(self, package, outcome_key=""):
        self.write(self.store)
        return ScriptedBackend({"default": ScriptedOutcome()}).run(package, outcome_key)


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
        run_parent_loop(config, 0, backend, workload)


def test_blocking_loop_accepts_child_that_advances_parent_to_its_own_step():
    # Same-step advance_to changes no content, so it is not a mutation.
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
    backend = _ParentMemoryWriter(workload.store, lambda store: store.advance_to(store.current_step))
    result = run_parent_loop(config, 0, backend, workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["success"]


def test_blocking_fork_path_neither_hashes_nor_recounts_the_parent_store(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fork path neither hashes the store nor counts words")

    slices = []
    slice_memory = runtime.slice_memory

    def recording(*args):
        slices.append(slice_memory(*args))
        return slices[-1]

    monkeypatch.setattr(MemoryStore, "content_digest", refuse)
    monkeypatch.setattr(runtime, "count_tokens", refuse)
    monkeypatch.setattr(memory, "count_tokens", refuse)
    monkeypatch.setattr(runtime, "slice_memory", recording)
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    trajectory = [SPIKE, QUIET, QUIET, QUIET, QUIET] * 2 + [SPIKE]
    workload, config = _loop_setup(trajectory, outcomes)
    initial_tokens = count_tokens(workload.store.items())
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["success"] * 3
    # Each slice's word count is its own; the parent's total is the
    # store's running count.
    assert [r.tokens_slice for r in result.spawn_records] == [count_tokens(s.items) for s in slices]
    assert [r.items_slice for r in result.spawn_records] == [len(s) for s in slices]
    assert all(r.tokens_slice > 0 for r in result.spawn_records)
    assert result.spawn_records[0].tokens_parent == initial_tokens
    assert result.state.memory.token_count == count_tokens(result.state.memory.items())


def test_loop_without_spikes_never_spawns():
    workload, config = _loop_setup([QUIET] * 6, {})
    result = run_parent_loop(config, 0, ScriptedBackend({}), workload)
    assert result.status == "completed"
    assert result.spawn_records == []
    assert len(result.tree.nodes) == 1


def test_loop_single_spike_spawns_one_context_compression_child():
    trajectory = [QUIET, QUIET, QUIET, SPIKE, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=30.0, test_pass_rate=0.9)}
    workload, config = _loop_setup(trajectory, outcomes)
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
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
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    # cooldown is 5 steps: spawns land on steps 0, 5 only
    assert [r.step for r in result.spawn_records] == [0, 5]


def test_loop_seeded_rerun_is_identical():
    trajectory = [QUIET, SPIKE, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=12.0)}

    def run():
        workload, config = _loop_setup(trajectory, outcomes)
        result = run_parent_loop(config, 9, ScriptedBackend(outcomes), workload)
        return result.event_lines(), [(r.spawn_id, r.outcome) for r in result.spawn_records]

    assert run() == run()


def test_loop_applies_child_diff_to_parent_files():
    diff = Diff(file="src/a.py", hunks=(Hunk(1, ("original line",), ("patched line",)),))
    outcomes = {"context_compression": ScriptedOutcome(execution_time=3.0, diffs=(diff,))}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes)
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    assert result.state.files["src/a.py"] == ["patched line"]
    assert len(result.merge_outcomes) == 1


def test_loop_records_timeout_and_completes():
    outcomes = {"context_compression": ScriptedOutcome(execution_time=700.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, child_timeout_secs=600.0)
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert result.spawn_records[0].outcome == "timed_out"
    failure_items = [
        i for i in tier_items(result.state.memory, MemoryTier.EPISODIC) if i.id.endswith(":failure")
    ]
    assert len(failure_items) == 1


def test_loop_nonblocking_mode_joins_at_step_boundaries():
    trajectory = [QUIET, SPIKE, QUIET, QUIET, QUIET, QUIET]
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup(trajectory, outcomes, parent_blocks=False)
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    assert result.spawn_records[0].outcome == "success"
    assert result.status == "completed"


def test_checkpoint_dir_writes_spawn_and_resume_files(tmp_path):
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, checkpoint_dir=str(tmp_path))
    run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
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
        # ComplexityMetrics rejects NaN, so it is set past the constructor:
        # the spawn package then carries a reading JSON cannot hold.
        nan_spike = ComplexityMetrics(17, 40, 85, 0.97, 8)
        object.__setattr__(nan_spike, "uncertainty", float("nan"))
        trajectory, checkpoint_dir, error = [QUIET, nan_spike, QUIET], tmp_path, "ValueError"
    else:
        checkpoint_dir = tmp_path / "taken"
        checkpoint_dir.write_text("a regular file")
        trajectory, error = [QUIET, SPIKE, QUIET], "FileExistsError"
    workload, config = _loop_setup(trajectory, outcomes, checkpoint_dir=str(checkpoint_dir))
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and f"backend error: {error}: " in invalid[0].detail
    assert result.spawn_records[0].spawn_id in result.tree.nodes
    assert result.tree.running_children(result.tree.root.id) == 0
    if case == "nan_metric":
        # The package fails to encode before its file is opened.
        assert not list(tmp_path.glob("spawn_*.json"))


def test_failed_resume_checkpoint_makes_the_child_invalid(tmp_path, monkeypatch):
    write = runtime.write_checkpoint

    def spawn_only(package, directory):
        if isinstance(package, ResumePackage):
            raise OSError("disk full")
        return write(package, directory)

    monkeypatch.setattr(runtime, "write_checkpoint", spawn_only)
    outcomes = {"context_compression": ScriptedOutcome(execution_time=2.0)}
    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes, checkpoint_dir=str(tmp_path))
    result = run_parent_loop(config, 0, ScriptedBackend(outcomes), workload)
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

    def fake_open(handler, request):
        seen.update(auth=request.get_header("Authorization"), timeout=request.timeout)
        raise OSError("no service")

    monkeypatch.setattr(service._DeadlineHandler, "http_open", fake_open)
    backend = ServiceBackend.from_env(timeout=SimulatorConfig().child_timeout_secs)
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
            resume = ScriptedBackend({"d": ScriptedOutcome(output="over http")}).run(package, "d")
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
        resume = backend.run(_package("spawn-0077"))
        assert resume.spawn_id == "spawn-0077"
        assert resume.result.output == "over http"
        assert received["auth"] == "Bearer tok"
    finally:
        server.shutdown()
        thread.join(timeout=5)


def _run_against(server, stop, timeout):
    """Run one spawning loop against ``server``, then set ``stop`` (which
    releases its handler) and shut it down; the loop's result and wall
    seconds."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        endpoint = f"http://127.0.0.1:{server.server_address[1]}/run"
        backend = ServiceBackend(http_transport(endpoint, None, timeout=timeout))
        workload, config = _loop_setup([QUIET, SPIKE, QUIET], {})
        started = time.monotonic()
        result = run_parent_loop(config, 0, backend, workload)
        elapsed = time.monotonic() - started
    finally:
        stop.set()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
    assert not thread.is_alive()
    return result, elapsed


def test_http_transport_timeout_turns_a_silent_service_into_an_invalid_child():
    answer = threading.Event()

    class SlowHandler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            package = decode_package(self.rfile.read(int(self.headers["Content-Length"])))
            body = encode_package(ScriptedBackend({"d": ScriptedOutcome()}).run(package, "d"))
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
    result, elapsed = _run_against(server, answer, timeout=0.2)
    assert elapsed < 1.5
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    invalid = [e for e in result.events if e.kind == "child_invalid"]
    assert len(invalid) == 1 and "backend error: " in invalid[0].detail
    assert "timed out" in invalid[0].detail


# A streaming service stops sending after this many seconds. That is the
# outer timeout of a test whose client has no deadline of its own.
STREAM_LIMIT_S = 10.0


def _streaming_service(chunk: bytes, gap: float, length: int):
    """A service that answers every POST with a ``length``-byte body, sent
    as ``chunk`` every ``gap`` seconds until the client hangs up, the
    returned event is set, or ``STREAM_LIMIT_S`` passes."""
    stop = threading.Event()

    class StreamingHandler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Length", str(length))
            self.end_headers()
            until = time.monotonic() + STREAM_LIMIT_S
            try:
                while time.monotonic() < until and not stop.wait(gap):
                    self.wfile.write(chunk)
            except OSError:
                pass  # the client gave up

        def log_message(self, *args):
            pass

    return http.server.HTTPServer(("127.0.0.1", 0), StreamingHandler), stop


def test_http_transport_deadline_ends_a_dripping_service_as_an_invalid_child():
    # One byte every 0.05 s: no socket read ever waits out the timeout,
    # so only a deadline for the whole request ends the call. Slack over
    # the timeout: one gap, plus the loop's own work on a loaded host.
    timeout, slack = 0.5, 1.0
    server, stop = _streaming_service(b" ", gap=0.05, length=10**6)
    result, elapsed = _run_against(server, stop, timeout)
    assert elapsed < timeout + slack
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    [invalid] = [e for e in result.events if e.kind == "child_invalid"]
    assert "backend error: TimeoutError: " in invalid.detail and "timed out" in invalid.detail


def test_http_transport_deadline_ends_a_service_that_drips_its_headers_as_an_invalid_child():
    # The status line and an endless header arrive one byte every 0.05 s,
    # so no socket read waits out the timeout; only a deadline over the
    # reads of the headers ends the call. Without one, the call lasts
    # until the service stops, STREAM_LIMIT_S later. Slack as above.
    timeout, slack = 0.5, 1.0
    stop = threading.Event()

    class DrippingHeaders(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.recv(2**16)
            head = itertools.chain(b"HTTP/1.1 200 OK\r\nX-Drip: ", itertools.repeat(ord("a")))
            until = time.monotonic() + STREAM_LIMIT_S
            try:
                for byte in head:
                    if stop.wait(0.05) or time.monotonic() > until:
                        break
                    self.request.sendall(bytes((byte,)))
            except OSError:
                pass  # the client gave up

    server = socketserver.TCPServer(("127.0.0.1", 0), DrippingHeaders)
    result, elapsed = _run_against(server, stop, timeout)
    assert elapsed < timeout + slack
    assert result.status == "completed"
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    [invalid] = [e for e in result.events if e.kind == "child_invalid"]
    assert "backend error: TimeoutError: timed out" in invalid.detail


def test_http_transport_over_the_byte_cap_is_an_invalid_child():
    server, stop = _streaming_service(b" " * 2**16, gap=0.0, length=2 * service.MAX_RESPONSE_BYTES)
    result, elapsed = _run_against(server, stop, timeout=5.0)
    assert elapsed < 5.0
    assert [r.outcome for r in result.spawn_records] == ["invalid"]
    [invalid] = [e for e in result.events if e.kind == "child_invalid"]
    assert f"service response exceeds {service.MAX_RESPONSE_BYTES} bytes" in invalid.detail


def test_byte_cap_is_far_above_every_bundled_resume_package(monkeypatch):
    sizes = []
    run = ScriptedBackend.run

    def measured(self, package, outcome_key=""):
        resume = run(self, package, outcome_key)
        sizes.append(len(encode_package(resume)))
        return resume

    monkeypatch.setattr(ScriptedBackend, "run", measured)
    for name in list_bundled_workloads():
        run_simulation(load_workload(bundled_workload_path(name)), SimulatorConfig(), 0)
    assert sizes and 1000 * max(sizes) < service.MAX_RESPONSE_BYTES


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
        valid = encode_package(ScriptedBackend(outcomes).run(decode_package(payload), "d"))
        return junk(valid)

    workload, config = _loop_setup([QUIET, SPIKE, QUIET], outcomes)
    result = run_parent_loop(config, 0, ServiceBackend(fake_transport), workload)
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
