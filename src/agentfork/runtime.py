"""Agent lifecycle orchestration.

The parent loop walks a metric trajectory, asks the spawn policy for a
decision each step, and on spawn slices memory, selects skills, builds a
package, and dispatches a child through a pluggable backend. A scheduler
enforces depth, concurrency and tree-size limits (queueing excess
requests FIFO), drives a virtual clock from scripted execution times so
timeouts are testable in milliseconds, and joins children back into the
parent via validation, replay, and the coherence merge.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Mapping, Protocol, Sequence

from .coherence import (
    ApplyError,
    Diff,
    MergeOutcome,
    ResolutionTier,
    StochasticMergeBackend,
    apply_diff,
    merge_diff_sets,
)
from .memory import (
    DefaultEmbedder,
    Embedder,
    MemorySlice,
    MemoryStore,
    MemoryTier,
    # Not called here: each slice carries its word count. The benchmark's
    # tracer (bench/tracer.py) wraps ``runtime.count_tokens``, so the name
    # stays bound until the tracer drops that target.
    count_tokens,
    make_item,
    reduction_percent,
    slice_memory,
)
from .policy import (
    CalibrationState,
    ComplexityMetrics,
    RuntimeState,
    SpawnAction,
    Specialization,
    decide_spawn,
    update_calibration,
)
from .protocol import (
    Action,
    ActionKind,
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    ParentState,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    build_spawn_package,
    replay_resume,
    sequential_ids,
    validate_resume,
    write_checkpoint,
)
from .skills import Skill, SkillLibrary, select_inherited_skills

if TYPE_CHECKING:
    from .config import SimulatorConfig


# The most nodes, root included, a run's spawn tree holds (fanout holds 841);
# a tree this large runs in under 0.5 s and 51 MB (2-vCPU VM, Python 3.11.7).
MAX_TREE_NODES = 10_000


class OrchestrationError(RuntimeError):
    pass


class SpawnTreeError(OrchestrationError):
    pass


class VirtualClock:
    """Run-relative simulated seconds; only ever moves forward."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise OrchestrationError("clock cannot move backwards")
        self.now += dt

    def advance_to(self, t: float) -> None:
        if t < self.now:
            raise OrchestrationError(f"clock cannot move backwards: {self.now} -> {t}")
        self.now = t


@dataclass(frozen=True)
class AgentId:
    id: str
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise SpawnTreeError("depth must be >= 0")


class SpawnTree:
    """Parent/child structure of one run. ``add_child`` is the only way a
    node enters the tree and it checks both limits before inserting, so a
    violation surfaces at the faulty call and the tree never needs a walk.
    The tree tracks which children are still running, not how they ended:
    ``parent`` maps each running child to its parent, and ``add_child``
    and ``mark`` keep each node's count of running children, so reading
    it costs one lookup."""

    def __init__(self, root: AgentId, max_depth: int, concurrent_limit: int):
        self.root = root
        self.max_depth = max_depth
        self.concurrent_limit = concurrent_limit
        self.nodes: dict[str, AgentId] = {root.id: root}
        self.children: dict[str, list[str]] = {root.id: []}
        self.parent: dict[str, str] = {}
        self.running_count: dict[str, int] = {}

    def add_child(self, parent_id: str, child: AgentId) -> None:
        if parent_id not in self.nodes:
            raise SpawnTreeError(f"unknown parent {parent_id!r}")
        if child.id in self.nodes:
            raise SpawnTreeError(f"duplicate node {child.id!r}")
        if child.depth != self.nodes[parent_id].depth + 1:
            raise SpawnTreeError(
                f"child depth {child.depth} is not parent depth + 1"
            )
        if child.depth > self.max_depth:
            raise SpawnTreeError(f"node {child.id} at depth {child.depth} exceeds {self.max_depth}")
        if self.running_children(parent_id) >= self.concurrent_limit:
            raise SpawnTreeError(
                f"node {parent_id} already has {self.concurrent_limit} running children"
            )
        self.nodes[child.id] = child
        self.children[child.id] = []
        self.children[parent_id].append(child.id)
        self.parent[child.id] = parent_id
        self.running_count[parent_id] = self.running_count.get(parent_id, 0) + 1

    def mark(self, node_id: str) -> None:
        """Record that a running child finished. Only ``add_child`` makes a
        node running, so that the concurrency limit has one enforcer."""
        parent_id = self.parent.pop(node_id, None)
        if parent_id is None:
            raise SpawnTreeError(f"{node_id!r} is not a running child")
        self.running_count[parent_id] -= 1

    def running_children(self, node_id: str) -> int:
        return self.running_count.get(node_id, 0)

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for parent, kids in self.children.items():
            for kid in kids:
                out.append((parent, kid))
        return out

    def max_observed_depth(self) -> int:
        return max(n.depth for n in self.nodes.values())


class ChildBackend(Protocol):
    """Executes one child given its spawn package.

    ``outcome_key`` is a dispatch hint (the chosen specialization for
    policy-triggered spawns); backends talking to a real service ignore
    it, the scripted backend uses it to pick the scripted outcome.
    Scripted execution must be deterministic given the package.
    """

    def run(self, package: SpawnPackage, outcome_key: str = "") -> ResumePackage: ...


@dataclass(frozen=True)
class NestedSpawn:
    """A spawn attempt a scripted child makes while it runs."""

    outcome_key: str
    specialization: Specialization = Specialization.RESEARCH_ANALYSIS


@dataclass(frozen=True)
class ScriptedOutcome:
    """Workload-supplied description of how a child run plays out."""

    status: ChildStatus = ChildStatus.SUCCESS
    execution_time: float = 10.0
    output: str = "done"
    diffs: tuple[Diff, ...] = ()
    skills_learned: tuple[Skill, ...] = ()
    test_pass_rate: float = 1.0
    tokens_used: int = 1000
    api_calls: int = 5
    trace: tuple[Action, ...] = ()
    spawns: tuple[NestedSpawn, ...] = ()


def _default_trace(outcome_key: str, output: str) -> tuple[Action, ...]:
    return (
        Action(step=1, kind=ActionKind.DECISION, summary=f"plan {outcome_key or 'task'}"),
        Action(step=2, kind=ActionKind.EDIT, summary="apply planned changes"),
        Action(step=3, kind=ActionKind.OBSERVATION, summary=output),
    )


class ScriptedBackend:
    """Replays child outcomes from the workload. Fully deterministic."""

    def __init__(self, outcomes: Mapping[str, ScriptedOutcome]):
        self.outcomes = dict(outcomes)

    def _script(self, outcome_key: str) -> ScriptedOutcome | None:
        """The outcome scripted for ``outcome_key``, else the ``"default"`` one."""
        return self.outcomes.get(outcome_key) or self.outcomes.get("default")

    def run(self, package: SpawnPackage, outcome_key: str = "") -> ResumePackage:
        script = self._script(outcome_key)
        if script is None:
            return ResumePackage(
                spawn_id=package.spawn_id,
                status=ChildStatus.FAILURE,
                execution_time=1.0,
                result=ResultPayload(output=f"no scripted outcome for {outcome_key!r}"),
                trace=_default_trace(outcome_key, "aborted"),
                metrics=ChildMetrics(tokens_used=0, api_calls=0, test_pass_rate=0.0),
            )
        return ResumePackage(
            spawn_id=package.spawn_id,
            status=script.status,
            execution_time=script.execution_time,
            result=ResultPayload(
                output=script.output,
                code_diff=script.diffs,
                files_modified=frozenset(d.file for d in script.diffs),
            ),
            trace=script.trace or _default_trace(outcome_key, script.output),
            skills_learned=script.skills_learned,
            metrics=ChildMetrics(
                tokens_used=script.tokens_used,
                api_calls=script.api_calls,
                test_pass_rate=script.test_pass_rate,
            ),
        )

    def nested_requests(self, outcome_key: str) -> tuple[NestedSpawn, ...]:
        script = self._script(outcome_key)
        return script.spawns if script else ()


@dataclass
class Event:
    time: float
    kind: str
    detail: str

    def line(self) -> str:
        return f"t={self.time:.3f} {self.kind} {self.detail}"


class ChildOutcome(Enum):
    """How a child ended: its resume package's status, or the scheduler's
    verdict when the child timed out or its result was invalid. The values
    are the report's outcome strings."""

    SUCCESS = "success"
    PARTIAL = "partial"
    FAILURE = "failure"
    TIMED_OUT = "timed_out"
    INVALID = "invalid"


@dataclass
class ChildHandle:
    """One child from request to completion, the scheduler's only record
    of it. ``done_at`` is set when the child starts: a child whose backend
    failed (``resume`` is None, the error in ``errors``) completes at its
    start, any other after its execution time, capped at the timeout.
    ``outcome`` is set once, when the child completes."""

    spawn_id: str
    agent: AgentId
    parent: AgentId
    package: SpawnPackage
    outcome_key: str
    done_at: float = 0.0
    resume: ResumePackage | None = None
    outcome: ChildOutcome | None = None
    errors: tuple[str, ...] = ()


@dataclass
class SpawnRequestOutcome:
    state: str  # started | queued | rejected
    reason: str | None = None


class ChildScheduler:
    """Admission control and completion ordering for child agents.

    Requests beyond a parent's concurrency limit queue FIFO and start as
    siblings finish; requests that would exceed the tree's depth limit,
    or ``MAX_TREE_NODES`` counted over every started and queued request,
    are rejected with a reason. Completions are
    processed in ``(done_at, spawn_id)`` order, popped from a heap that
    ``_start`` pushes each child onto once its completion time is known,
    so the same requests replay the identical event sequence.

    A request queues only when its parent is full, and a parent gains
    room only when one of its own children completes, so each parent
    keeps its own FIFO queue and a completion admits at most the head of
    its parent's queue.

    The spawns a child makes while it runs are requested depth first from
    an explicit stack, one lazy iterator per started child, so a chain of
    nested spawns never deepens the caller's stack.
    """

    def __init__(
        self,
        tree: SpawnTree,
        clock,
        config: SimulatorConfig,
        backend: ChildBackend,
        events: list[Event],
    ):
        self.tree = tree
        self.clock = clock
        self.config = config
        self.backend = backend
        self.events = events
        self.running: list[tuple[float, str, ChildHandle]] = []
        self.queue: dict[str, deque[ChildHandle]] = {}
        self.nested: list[Iterator[tuple[AgentId, SpawnPackage, str]]] = []
        self.ids = sequential_ids()
        self.rejected_count = 0
        self.queued_count = 0
        # Nodes started or queued, root included; admitting a queued one adds none.
        self.admitted = len(tree.nodes)

    def next_id(self) -> str:
        return next(self.ids)

    def active_for(self, node_id: str) -> int:
        return self.tree.running_children(node_id) + len(self.queue.get(node_id, ()))

    def spawn_child(self, parent: AgentId, package: SpawnPackage, outcome_key: str) -> SpawnRequestOutcome:
        """Validate limits and start or queue the child. Never drops a
        request silently: the outcome is started, queued, or rejected."""
        child = AgentId(id=package.spawn_id, depth=parent.depth + 1)
        reason = self._rejection(child.depth)
        if reason is not None:
            return self._reject(package.spawn_id, reason)
        self.admitted += 1
        handle = ChildHandle(
            spawn_id=package.spawn_id, agent=child, parent=parent, package=package, outcome_key=outcome_key
        )
        if self.tree.running_children(parent.id) >= self.tree.concurrent_limit:
            self.queue.setdefault(parent.id, deque()).append(handle)
            self.queued_count += 1
            self.events.append(
                Event(self.clock.now, "spawn_queued", f"{package.spawn_id} parent={parent.id}")
            )
            return SpawnRequestOutcome(state="queued")
        self._start(handle)
        return SpawnRequestOutcome(state="started")

    def _rejection(self, depth: int) -> str | None:
        """Why a request for a child at ``depth`` is rejected now, or
        None: the depth limit is checked before the tree cap."""
        if depth > self.tree.max_depth:
            return f"depth {depth} exceeds max depth {self.tree.max_depth}"
        if self.admitted >= MAX_TREE_NODES:
            return f"tree holds its cap of {MAX_TREE_NODES} nodes"
        return None

    def _reject(self, spawn_id: str, reason: str) -> SpawnRequestOutcome:
        self.rejected_count += 1
        self.events.append(Event(self.clock.now, "spawn_rejected", f"{spawn_id} {reason}"))
        return SpawnRequestOutcome(state="rejected", reason=reason)

    def _start(self, handle: ChildHandle) -> None:
        """Start one child and push its nested requests. The outermost
        call then requests them all, depth first, through ``spawn_child``;
        a call made while they are being requested only pushes."""
        outermost = not self.nested
        self.tree.add_child(handle.parent.id, handle.agent)
        handle.done_at = self.clock.now
        try:
            if self.config.checkpoint_dir:
                write_checkpoint(handle.package, self.config.checkpoint_dir)
            handle.resume = self.backend.run(handle.package, handle.outcome_key)
        except Exception as exc:
            # A failing checkpoint write or backend costs this child, never the parent.
            handle.errors = (f"backend error: {type(exc).__name__}: {exc}",)
        self.events.append(
            Event(self.clock.now, "child_started", f"{handle.spawn_id} parent={handle.parent.id} key={handle.outcome_key}")
        )
        if handle.resume is not None:
            handle.done_at += min(handle.resume.execution_time, self.config.child_timeout_secs)
            self.nested.append(self._nested_requests(handle))
        heapq.heappush(self.running, (handle.done_at, handle.spawn_id, handle))
        if not outermost:
            return
        try:
            while self.nested:
                request = next(self.nested[-1], None)
                if request is None:
                    self.nested.pop()
                else:
                    self.spawn_child(*request)
        finally:
            # Left behind by an error, requests would stop the next start draining.
            self.nested.clear()

    def _nested_requests(self, handle: ChildHandle) -> Iterator[tuple[AgentId, SpawnPackage, str]]:
        """The spawns ``handle``'s child makes, each package built (and its
        id taken) only when its turn comes. Once the tree is at its cap,
        every request is rejected here: it takes its id and gets the
        event ``spawn_child`` would record, but no package."""
        nested_for = getattr(self.backend, "nested_requests", lambda outcome_key: ())
        for nested in nested_for(handle.outcome_key):
            if self.admitted >= MAX_TREE_NODES:
                self._reject(self.next_id(), self._rejection(handle.agent.depth + 1))
                continue
            package = build_spawn_package(
                parent_id=handle.spawn_id,
                task=handle.package.task,
                memory_slice=_EMPTY_SLICE,
                skills=(),
                context=handle.package.context,
                metrics=handle.package.metrics,
                score=handle.package.score,
                timestamp=self.clock.now,
                id_source=self.next_id,
            )
            yield handle.agent, package, nested.outcome_key

    def _admit_queued(self, parent_id: str) -> None:
        """Start the head of ``parent_id``'s queue if the parent has room."""
        queue = self.queue.get(parent_id)
        if not queue or self.tree.running_children(parent_id) >= self.tree.concurrent_limit:
            return
        queued = queue.popleft()
        if not queue:
            del self.queue[parent_id]
        self._start(queued)
        self.events.append(Event(self.clock.now, "queue_admitted", queued.spawn_id))

    def _complete(self, handle: ChildHandle) -> None:
        timeout = self.config.child_timeout_secs
        resume = handle.resume
        self.tree.mark(handle.spawn_id)
        if resume is not None and resume.execution_time > timeout:
            handle.outcome = ChildOutcome.TIMED_OUT
            self.events.append(
                Event(self.clock.now, "child_timed_out", f"{handle.spawn_id} after {timeout}s")
            )
        else:
            if resume is not None:
                errors = validate_resume(resume, handle.package)
                # A resume that names another child is already invalid;
                # written, it would overwrite that child's checkpoint.
                if self.config.checkpoint_dir and resume.spawn_id == handle.spawn_id:
                    try:
                        write_checkpoint(resume, self.config.checkpoint_dir)
                    except Exception as exc:
                        errors.append(f"checkpoint error: {type(exc).__name__}: {exc}")
                handle.errors = tuple(errors)
            if handle.errors:
                handle.outcome = ChildOutcome.INVALID
                self.events.append(
                    Event(self.clock.now, "child_invalid", f"{handle.spawn_id} {'; '.join(handle.errors)}")
                )
            else:
                handle.outcome = ChildOutcome(resume.status.value)
                self.events.append(
                    Event(self.clock.now, "child_completed", f"{handle.spawn_id} status={resume.status.value}")
                )
        self._admit_queued(handle.parent.id)

    def await_children(self, until: float | None = None) -> list[ChildHandle]:
        """Complete children in time order and return their handles.

        With ``until`` set, only completions at or before that instant
        are processed (non-blocking polling); otherwise runs until no
        child is running or queued.
        """
        completed = []
        while self.running and (until is None or self.running[0][0] <= until):
            handle = heapq.heappop(self.running)[2]
            self.clock.advance_to(max(handle.done_at, self.clock.now))
            self._complete(handle)
            completed.append(handle)
        if until is None and self.queue:
            raise OrchestrationError("queued spawn requests stranded with no running children")
        return completed


_EMPTY_SLICE = MemorySlice(items=(), tokens=0)


def handle_child_failure(
    state: ParentState, spawn_id: str, kind: str, detail: str, embedder: Embedder
) -> None:
    """Record a child failure in episodic memory; no diffs, no retry."""
    content = f"child {spawn_id} failed ({kind}): {detail}"
    state.memory.add(
        make_item(
            f"{spawn_id}:failure", MemoryTier.EPISODIC, content, embedder, created_at_step=state.memory.current_step
        )
    )


def flush_staged_diffs(
    state: ParentState, merge_backend
) -> tuple[MergeOutcome | None, list[str]]:
    """Drain the staging area through the coherence merge and apply the
    surviving diffs to the parent's working tree. Escalated files become
    follow-up subtasks for the parent."""
    if not state.staged:
        return None, []
    outcome = merge_diff_sets(list(state.staged), state.files, merge_backend)
    state.staged.clear()
    apply_errors: list[str] = []
    for diff in outcome.merged_diffs:
        try:
            state.files[diff.file] = apply_diff(state.files.get(diff.file, []), diff)
        except ApplyError as exc:
            apply_errors.append(str(exc))
    for path in sorted(outcome.escalated_files):
        state.followups.append(f"resolve escalated conflict in {path}")
    return outcome, apply_errors


@dataclass
class LoopWorkload:
    """The concrete inputs one simulated run consumes."""

    task: TaskSpec
    store: MemoryStore
    skills: SkillLibrary
    files: dict[str, list[str]]
    trajectory: Sequence[ComplexityMetrics]


@dataclass
class SpawnRecord:
    spawn_id: str
    specialization: str
    step: int
    score: float
    tokens_parent: int
    tokens_slice: int
    reduction_pct: float
    items_parent: int
    items_slice: int
    outcome: str = "pending"  # then the value of the handle's ChildOutcome
    execution_time: float = 0.0
    tokens_used: int = 0
    api_calls: int = 0
    test_pass_rate: float = 0.0


@dataclass
class LoopResult:
    status: str
    spawn_records: list[SpawnRecord]
    tree: SpawnTree
    events: list[Event]
    state: ParentState
    merge_outcomes: list[MergeOutcome]
    rejected_spawns: int = 0
    queued_spawns: int = 0

    def event_lines(self) -> list[str]:
        return [e.line() for e in self.events]


def run_parent_loop(
    config: SimulatorConfig,
    seed: int,
    backend: ChildBackend,
    workload: LoopWorkload,
) -> LoopResult:
    """Drive one parent agent across the workload's metric trajectory.

    Each step: read metrics, widen calibration, decide. On spawn: slice
    memory, inherit skills, package, dispatch. In blocking mode (the
    default) the parent pauses at each spawn until its children join;
    otherwise completions are integrated at step boundaries.
    """
    task = workload.task
    embedder = DefaultEmbedder(workload.store.embedding_dim)
    clock = VirtualClock()
    events: list[Event] = []
    root = AgentId(id="parent", depth=0)
    tree = SpawnTree(root, config.max_spawn_depth, config.concurrent_spawn_limit)
    scheduler = ChildScheduler(tree, clock, config, backend, events)
    merge_rng = random.Random(f"{seed}:merge")
    merge_backend = StochasticMergeBackend(config.semantic_merge_p, merge_rng)
    state = ParentState(
        memory=workload.store, skills=workload.skills, files={k: list(v) for k, v in workload.files.items()}
    )
    calibration = CalibrationState()
    records: list[SpawnRecord] = []
    by_id: dict[str, SpawnRecord] = {}
    merge_outcomes: list[MergeOutcome] = []
    last_spawn_step: int | None = None

    def integrate(completed: list[ChildHandle]) -> None:
        if not completed:
            return
        for handle in completed:
            if handle.parent.id != root.id:
                # Grandchildren report to their own (scripted) parent; their
                # handle and the event log carry their outcome.
                continue
            record = by_id[handle.spawn_id]
            record.outcome = handle.outcome.value
            if handle.outcome is ChildOutcome.TIMED_OUT:
                detail = f"exceeded {config.child_timeout_secs}s"
                handle_child_failure(state, handle.spawn_id, "timeout", detail, embedder)
                continue
            if handle.outcome is ChildOutcome.INVALID:
                handle_child_failure(state, handle.spawn_id, "invalid", "; ".join(handle.errors), embedder)
                continue
            resume = handle.resume
            replay_resume(state, resume, embedder, config.promote_threshold)
            record.execution_time = resume.execution_time
            record.tokens_used = resume.metrics.tokens_used
            record.api_calls = resume.metrics.api_calls
            record.test_pass_rate = resume.metrics.test_pass_rate
        outcome, apply_errors = flush_staged_diffs(state, merge_backend)
        if outcome is not None:
            merge_outcomes.append(outcome)
            events.append(
                Event(
                    clock.now,
                    "merge",
                    "auto={} semantic={} escalated={}".format(
                        outcome.tier_count(ResolutionTier.AUTO),
                        outcome.tier_count(ResolutionTier.SEMANTIC),
                        outcome.tier_count(ResolutionTier.ESCALATED),
                    ),
                )
            )
        for err in apply_errors:
            events.append(Event(clock.now, "apply_error", err))

    base_step = state.memory.current_step
    for step, metrics in enumerate(workload.trajectory):
        state.memory.advance_to(base_step + step)
        clock.advance(config.step_duration_secs)
        update_calibration(calibration, metrics)
        runtime_state = RuntimeState(
            depth=root.depth,
            active_children=scheduler.active_for(root.id),
            steps_since_last_spawn=None if last_spawn_step is None else step - last_spawn_step,
        )
        decision = decide_spawn(metrics, calibration, config, runtime_state)
        events.append(
            Event(clock.now, "decision", f"step={step} action={decision.action.value} score={decision.score:.4f}")
        )
        if decision.action is SpawnAction.SPAWN:
            last_spawn_step = step
            memory_slice = slice_memory(state.memory, task, config, embedder)
            inherited = select_inherited_skills(state.skills, task, embedder)
            context = ExecutionContext(repo_path="repo")
            package = build_spawn_package(
                parent_id=root.id,
                task=task,
                memory_slice=memory_slice,
                skills=inherited,
                context=context,
                metrics=metrics,
                score=decision.score,
                timestamp=clock.now,
                id_source=scheduler.next_id,
            )
            tokens_parent = state.memory.token_count
            tokens_slice = memory_slice.tokens
            record = SpawnRecord(
                spawn_id=package.spawn_id,
                specialization=decision.specialization.value,
                step=step,
                score=decision.score,
                tokens_parent=tokens_parent,
                tokens_slice=tokens_slice,
                reduction_pct=reduction_percent(tokens_parent, tokens_slice),
                items_parent=len(state.memory),
                items_slice=len(memory_slice),
            )
            version_before = state.memory.version
            outcome = scheduler.spawn_child(root, package, decision.specialization.value)
            if outcome.state != "rejected":
                records.append(record)
                by_id[record.spawn_id] = record
            if outcome.state != "rejected" and config.parent_blocks:
                results = scheduler.await_children()
                if state.memory.version != version_before:
                    raise OrchestrationError("parent memory mutated while children ran")
                integrate(results)
        if not config.parent_blocks:
            integrate(scheduler.await_children(until=clock.now))

    # trajectory exhausted: join whatever is still out there
    integrate(scheduler.await_children())
    return LoopResult(
        status="completed",
        spawn_records=records,
        tree=tree,
        events=events,
        state=state,
        merge_outcomes=merge_outcomes,
        rejected_spawns=scheduler.rejected_count,
        queued_spawns=scheduler.queued_count,
    )
