"""Agent lifecycle orchestration.

The parent loop walks a metric trajectory, asks the spawn policy for a
decision each step, and on spawn slices memory, selects skills, builds a
package, and dispatches a child through a pluggable backend. A scheduler
enforces depth and concurrency limits (queueing excess requests FIFO),
drives a virtual clock from scripted execution times so timeouts are
testable in milliseconds, and joins children back into the parent via
validation, replay, and the coherence merge.
"""

from __future__ import annotations

import os
import random
import urllib.request
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Protocol, Sequence

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
    Embedder,
    MemoryItem,
    MemorySlice,
    MemoryStore,
    MemoryTier,
    RelevanceWeights,
    count_tokens,
    reduction_percent,
    slice_memory,
)
from .policy import (
    CalibrationState,
    ComplexityMetrics,
    RuntimeState,
    SpawnAction,
    SpawnDecision,
    SpawnPolicyConfig,
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
    ReplayConfig,
    ReplayReport,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    build_spawn_package,
    decode_package,
    encode_package,
    replay_resume,
    sequential_ids,
    validate_resume,
    write_checkpoint,
)
from .skills import Skill, SkillLibrary, select_inherited_skills


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


class NodeStatus(str, Enum):
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


class SpawnTree:
    """Parent/child structure of one run. ``add_child`` is the only way a
    node enters the tree and it checks both limits before inserting, so a
    violation surfaces at the faulty call and the tree never needs a walk."""

    def __init__(self, root: AgentId, max_depth: int, concurrent_limit: int):
        self.root = root
        self.max_depth = max_depth
        self.concurrent_limit = concurrent_limit
        self.nodes: dict[str, AgentId] = {root.id: root}
        self.children: dict[str, list[str]] = {root.id: []}
        self.status: dict[str, NodeStatus] = {root.id: NodeStatus.RUNNING}

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
        self.status[child.id] = NodeStatus.RUNNING

    def mark(self, node_id: str, status: NodeStatus) -> None:
        """Record how a node finished. Only ``add_child`` makes a node
        running, so that the concurrency limit has one enforcer."""
        if node_id not in self.nodes:
            raise SpawnTreeError(f"unknown node {node_id!r}")
        if status is NodeStatus.RUNNING:
            raise SpawnTreeError(f"cannot mark {node_id!r} running again")
        self.status[node_id] = status

    def running_children(self, node_id: str) -> int:
        return sum(
            1 for c in self.children.get(node_id, ()) if self.status[c] is NodeStatus.RUNNING
        )

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for parent, kids in self.children.items():
            for kid in kids:
                out.append((parent, kid))
        return out

    def max_observed_depth(self) -> int:
        return max(n.depth for n in self.nodes.values())


@dataclass
class RuntimeConfig:
    child_timeout: float = 600.0
    seed: int = 0
    parent_blocks: bool = True
    step_duration: float = 1.0
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.child_timeout <= 0:
            raise OrchestrationError("child_timeout must be positive")
        if self.step_duration <= 0:
            raise OrchestrationError("step_duration must be positive")


class ChildBackend(Protocol):
    """Executes one child given its spawn package.

    ``outcome_key`` is a dispatch hint (the chosen specialization for
    policy-triggered spawns); backends talking to a real service ignore
    it, the scripted backend uses it to pick the scripted outcome.
    Scripted execution must be deterministic given (package, seed).
    """

    def run(self, package: SpawnPackage, seed: int, outcome_key: str = "") -> ResumePackage: ...


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

    def run(self, package: SpawnPackage, seed: int, outcome_key: str = "") -> ResumePackage:
        script = self.outcomes.get(outcome_key) or self.outcomes.get("default")
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
        script = self.outcomes.get(outcome_key)
        return script.spawns if script else ()


ENDPOINT_ENV = "AGENTFORK_SERVICE_ENDPOINT"
TOKEN_ENV = "AGENTFORK_SERVICE_TOKEN"


def http_transport(endpoint: str, token: str | None, timeout: float) -> Callable[[bytes], bytes]:
    """POST encoded spawn packages to a model service, return its bytes.

    A service that does not answer within ``timeout`` seconds makes the
    call raise, which the scheduler records as an invalid child."""

    def send(payload: bytes) -> bytes:
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}, method="POST"
        )
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read()

    return send


class ServiceBackend:
    """Runs children on an external model service.

    The wire contract is exactly the package codec: the request body is
    an encoded SpawnPackage, the response an encoded ResumePackage.
    """

    def __init__(self, transport: Callable[[bytes], bytes]):
        self.transport = transport

    @classmethod
    def from_env(cls, timeout: float) -> "ServiceBackend":
        """Backend for the service named in the environment; pass the
        run's ``RuntimeConfig.child_timeout`` as ``timeout``."""
        endpoint = os.environ.get(ENDPOINT_ENV)
        if not endpoint:
            raise OrchestrationError(f"{ENDPOINT_ENV} is not set")
        return cls(http_transport(endpoint, os.environ.get(TOKEN_ENV), timeout))

    def run(self, package: SpawnPackage, seed: int, outcome_key: str = "") -> ResumePackage:
        response = self.transport(encode_package(package))
        decoded = decode_package(response)
        if not isinstance(decoded, ResumePackage):
            raise OrchestrationError("service returned a spawn package, expected a resume package")
        return decoded


@dataclass
class Event:
    time: float
    kind: str
    detail: str

    def line(self) -> str:
        return f"t={self.time:.3f} {self.kind} {self.detail}"


@dataclass
class ChildHandle:
    spawn_id: str
    agent: AgentId
    parent: AgentId
    package: SpawnPackage
    outcome_key: str
    seed: int
    start_time: float | None = None
    resume: ResumePackage | None = None

    def completion_time(self, timeout: float) -> float:
        """A started child without a resume package failed in the backend:
        it completes at its start time."""
        assert self.start_time is not None
        duration = self.resume.execution_time if self.resume is not None else 0.0
        return self.start_time + min(duration, timeout)

    def timed_out(self, timeout: float) -> bool:
        return self.resume is not None and self.resume.execution_time > timeout


@dataclass
class SpawnRequestOutcome:
    state: str  # started | queued | rejected
    handle: ChildHandle | None = None
    reason: str | None = None


@dataclass
class AwaitResult:
    handle: ChildHandle
    kind: str  # ok | timeout | invalid
    resume: ResumePackage | None = None
    errors: tuple[str, ...] = ()


class ChildFailure:
    def __init__(self, spawn_id: str, kind: str, detail: str):
        self.spawn_id = spawn_id
        self.kind = kind
        self.detail = detail


class ChildScheduler:
    """Admission control and completion ordering for child agents.

    Requests beyond a parent's concurrency limit queue FIFO and start as
    siblings finish; requests that would exceed the depth limit are
    rejected with a reason. Both limits are the tree's. Completions are
    processed in virtual-time order, so a fixed seed replays the
    identical event sequence.

    A request queues only when its parent is full, and a parent gains
    room only when one of its own children completes, so each parent
    keeps its own FIFO queue and a completion admits at most the head of
    its parent's queue.
    """

    def __init__(
        self,
        tree: SpawnTree,
        clock,
        config: RuntimeConfig,
        backend: ChildBackend,
        events: list[Event],
    ):
        self.tree = tree
        self.clock = clock
        self.config = config
        self.backend = backend
        self.events = events
        self.running: list[ChildHandle] = []
        self.queue: dict[str, deque[ChildHandle]] = {}
        self.backend_errors: dict[str, str] = {}
        self.ids = sequential_ids()
        self._child_counter = 0
        self.rejected_count = 0
        self.queued_count = 0

    def next_id(self) -> str:
        return next(self.ids)

    def active_for(self, node_id: str) -> int:
        return self.tree.running_children(node_id) + len(self.queue.get(node_id, ()))

    def spawn_child(
        self, parent: AgentId, decision: SpawnDecision, package: SpawnPackage, outcome_key: str | None = None
    ) -> SpawnRequestOutcome:
        """Validate limits and start or queue the child. Never drops a
        request silently: the outcome is started, queued, or rejected."""
        if decision.action is not SpawnAction.SPAWN:
            raise OrchestrationError("spawn_child requires a spawn decision")
        key = outcome_key if outcome_key is not None else decision.specialization.value
        child = AgentId(id=package.spawn_id, depth=parent.depth + 1)
        if child.depth > self.tree.max_depth:
            reason = f"depth {child.depth} exceeds max depth {self.tree.max_depth}"
            self.rejected_count += 1
            self.events.append(Event(self.clock.now, "spawn_rejected", f"{package.spawn_id} {reason}"))
            return SpawnRequestOutcome(state="rejected", reason=reason)
        self._child_counter += 1
        handle = ChildHandle(
            spawn_id=package.spawn_id,
            agent=child,
            parent=parent,
            package=package,
            outcome_key=key,
            seed=self.config.seed * 1_000_003 + self._child_counter,
        )
        if self.tree.running_children(parent.id) >= self.tree.concurrent_limit:
            self.queue.setdefault(parent.id, deque()).append(handle)
            self.queued_count += 1
            self.events.append(
                Event(self.clock.now, "spawn_queued", f"{package.spawn_id} parent={parent.id}")
            )
            return SpawnRequestOutcome(state="queued", handle=handle)
        self._start(handle)
        return SpawnRequestOutcome(state="started", handle=handle)

    def _start(self, handle: ChildHandle) -> None:
        handle.start_time = self.clock.now
        self.tree.add_child(handle.parent.id, handle.agent)
        try:
            if self.config.checkpoint_dir:
                write_checkpoint(handle.package, self.config.checkpoint_dir)
            handle.resume = self.backend.run(handle.package, handle.seed, handle.outcome_key)
        except Exception as exc:
            # A failing checkpoint write or backend costs this child, never the parent.
            self.backend_errors[handle.spawn_id] = f"backend error: {type(exc).__name__}: {exc}"
        self.running.append(handle)
        self.events.append(
            Event(self.clock.now, "child_started", f"{handle.spawn_id} parent={handle.parent.id} key={handle.outcome_key}")
        )
        if handle.resume is not None:
            self._dispatch_nested(handle)

    def _dispatch_nested(self, handle: ChildHandle) -> None:
        nested_for = getattr(self.backend, "nested_requests", None)
        if nested_for is None:
            return
        for nested in nested_for(handle.outcome_key):
            package = build_spawn_package(
                parent_id=handle.spawn_id,
                task=handle.package.task,
                memory_slice=_EMPTY_SLICE,
                skills=(),
                context=handle.package.context,
                metrics=handle.package.metrics,
                score=handle.package.score,
                clock=self.clock,
                id_source=self.next_id,
            )
            decision = SpawnDecision(
                action=SpawnAction.SPAWN,
                specialization=nested.specialization,
                score=handle.package.score,
                normalized_metrics=(0.0,) * 5,
            )
            self.spawn_child(handle.agent, decision, package, outcome_key=nested.outcome_key)

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

    def _complete(self, handle: ChildHandle) -> AwaitResult:
        timeout = self.config.child_timeout
        self.running.remove(handle)
        if handle.timed_out(timeout):
            self.tree.mark(handle.spawn_id, NodeStatus.TIMED_OUT)
            self.events.append(
                Event(self.clock.now, "child_timed_out", f"{handle.spawn_id} after {timeout}s")
            )
            self._admit_queued(handle.parent.id)
            return AwaitResult(handle=handle, kind="timeout")
        resume = handle.resume
        if resume is None:
            errors = [self.backend_errors.pop(handle.spawn_id)]
        else:
            errors = validate_resume(resume, handle.package)
            if self.config.checkpoint_dir:
                try:
                    write_checkpoint(resume, self.config.checkpoint_dir)
                except Exception as exc:
                    errors.append(f"checkpoint error: {type(exc).__name__}: {exc}")
        if errors:
            self.tree.mark(handle.spawn_id, NodeStatus.FAILED)
            self.events.append(
                Event(self.clock.now, "child_invalid", f"{handle.spawn_id} {'; '.join(errors)}")
            )
            self._admit_queued(handle.parent.id)
            return AwaitResult(handle=handle, kind="invalid", resume=resume, errors=tuple(errors))
        status = NodeStatus.FAILED if resume.status is ChildStatus.FAILURE else NodeStatus.DONE
        self.tree.mark(handle.spawn_id, status)
        self.events.append(
            Event(self.clock.now, "child_completed", f"{handle.spawn_id} status={resume.status.value}")
        )
        self._admit_queued(handle.parent.id)
        return AwaitResult(handle=handle, kind="ok", resume=resume)

    def _next_completion(self) -> ChildHandle:
        timeout = self.config.child_timeout
        return min(self.running, key=lambda h: (h.completion_time(timeout), h.spawn_id))

    def await_children(self, until: float | None = None) -> list[AwaitResult]:
        """Process completions in time order.

        With ``until`` set, only completions at or before that instant
        are processed (non-blocking polling); otherwise runs until no
        child is running or queued.
        """
        results = []
        while self.running:
            handle = self._next_completion()
            t = handle.completion_time(self.config.child_timeout)
            if until is not None and t > until:
                break
            self.clock.advance_to(max(t, self.clock.now))
            results.append(self._complete(handle))
        if until is None and self.queue:
            raise OrchestrationError("queued spawn requests stranded with no running children")
        return results

    def idle(self) -> bool:
        return not self.running and not self.queue


_EMPTY_SLICE = MemorySlice(items=(), source_store_step=0, threshold_used=0.0)


def handle_child_failure(state: ParentState, failure: ChildFailure, embedder: Embedder) -> ParentState:
    """Record a child failure in episodic memory; no diffs, no retry."""
    content = f"child {failure.spawn_id} failed ({failure.kind}): {failure.detail}"
    state.memory.add(
        MemoryItem(
            id=f"{failure.spawn_id}:failure",
            tier=MemoryTier.EPISODIC,
            content=content,
            created_at_step=state.memory.current_step,
            embedding=tuple(embedder(content)),
        )
    )
    return state


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
    repo_path: str = "repo"


@dataclass
class LoopConfig:
    policy: SpawnPolicyConfig
    runtime: RuntimeConfig
    relevance: RelevanceWeights
    embedder: Embedder
    memory_threshold: float = 0.5
    promote_threshold: float = 0.8
    semantic_merge_p: float = 0.73



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
    outcome: str = "pending"  # success | partial | failure | timed_out | invalid
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
    replay_reports: list[ReplayReport]
    rejected_spawns: int = 0
    queued_spawns: int = 0

    def event_lines(self) -> list[str]:
        return [e.line() for e in self.events]


def run_parent_loop(
    task: TaskSpec,
    config: LoopConfig,
    backend: ChildBackend,
    workload: LoopWorkload,
) -> LoopResult:
    """Drive one parent agent across the workload's metric trajectory.

    Each step: read metrics, widen calibration, decide. On spawn: slice
    memory, inherit skills, package, dispatch. In blocking mode (the
    default) the parent pauses at each spawn until its children join;
    otherwise completions are integrated at step boundaries.
    """
    clock = VirtualClock()
    events: list[Event] = []
    root = AgentId(id="parent", depth=0)
    tree = SpawnTree(root, config.policy.max_depth, config.policy.concurrent_limit)
    scheduler = ChildScheduler(tree, clock, config.runtime, backend, events)
    merge_rng = random.Random(f"{config.runtime.seed}:merge")
    merge_backend = StochasticMergeBackend(config.semantic_merge_p, merge_rng)
    replay_config = ReplayConfig(
        embedder=config.embedder, promote_threshold=config.promote_threshold
    )
    state = ParentState(
        memory=workload.store, skills=workload.skills, files={k: list(v) for k, v in workload.files.items()}
    )
    calibration = CalibrationState()
    records: list[SpawnRecord] = []
    by_id: dict[str, SpawnRecord] = {}
    merge_outcomes: list[MergeOutcome] = []
    replay_reports: list[ReplayReport] = []
    last_spawn_step: int | None = None

    def integrate(results: list[AwaitResult]) -> None:
        if not results:
            return
        for res in results:
            if res.handle.parent.id != root.id:
                # Grandchildren report to their own (scripted) parent; the
                # tree and event log already carry their outcome.
                continue
            record = by_id.get(res.handle.spawn_id)
            if res.kind == "timeout":
                handle_child_failure(
                    state,
                    ChildFailure(res.handle.spawn_id, "timeout", f"exceeded {config.runtime.child_timeout}s"),
                    config.embedder,
                )
                if record:
                    record.outcome = "timed_out"
                continue
            if res.kind == "invalid":
                handle_child_failure(
                    state,
                    ChildFailure(res.handle.spawn_id, "invalid", "; ".join(res.errors)),
                    config.embedder,
                )
                if record:
                    record.outcome = "invalid"
                continue
            resume = res.resume
            report = replay_resume(state, resume, replay_config)
            replay_reports.append(report)
            if record:
                record.outcome = resume.status.value
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
        clock.advance(config.runtime.step_duration)
        update_calibration(calibration, metrics)
        runtime_state = RuntimeState(
            depth=root.depth,
            active_children=scheduler.active_for(root.id),
            steps_since_last_spawn=step - last_spawn_step if last_spawn_step is not None else 10 ** 9,
        )
        decision = decide_spawn(metrics, calibration, config.policy, runtime_state)
        events.append(
            Event(clock.now, "decision", f"step={step} action={decision.action.value} score={decision.score:.4f}")
        )
        if decision.action is SpawnAction.SPAWN:
            last_spawn_step = step
            memory_slice = slice_memory(
                state.memory, task, config.memory_threshold, config.relevance, config.embedder
            )
            inherited = select_inherited_skills(state.skills, task, config.embedder)
            context = ExecutionContext(repo_path=workload.repo_path)
            package = build_spawn_package(
                parent_id=root.id,
                task=task,
                memory_slice=memory_slice,
                skills=inherited,
                context=context,
                metrics=metrics,
                score=decision.score,
                clock=clock,
                id_source=scheduler.next_id,
            )
            tokens_parent = state.memory.token_count
            tokens_slice = count_tokens(memory_slice.items)
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
            outcome = scheduler.spawn_child(root, decision, package)
            if outcome.state != "rejected":
                records.append(record)
                by_id[record.spawn_id] = record
            if outcome.state != "rejected" and config.runtime.parent_blocks:
                results = scheduler.await_children()
                if state.memory.version != version_before:
                    raise OrchestrationError("parent memory mutated while children ran")
                integrate(results)
        if not config.runtime.parent_blocks:
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
        replay_reports=replay_reports,
        rejected_spawns=scheduler.rejected_count,
        queued_spawns=scheduler.queued_count,
    )
