"""Spawn/resume packages, their canonical wire codec, and context replay.

A parent hands a child a spawn package: sliced memory, inherited skills,
execution context, the task, and the metrics that triggered the spawn.
The child returns a resume package: status, output, diffs, trace, learned
skills, and cost metrics. Both serialize to canonical UTF-8 JSON with a
fixed key order so identical packages are byte-identical, which doubles
as the on-disk checkpoint format (``spawn_<id>.json``, ``resume_<id>.json``).
"""

from __future__ import annotations

import itertools
import json
import uuid
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .coherence import Diff, combine_diffs, diff_applies
from .memory import MemoryItem, MemorySlice, MemoryStore, MemoryTier, TIER_ORDER, Embedder
from .policy import ComplexityMetrics
from .skills import Skill, SkillLibrary, promote_skills


class ProtocolError(ValueError):
    pass


class PackageDecodeError(ProtocolError):
    """Raised when bytes cannot be parsed into a valid package."""

    def __init__(self, kind: str, path: str, message: str):
        self.kind = kind
        self.path = path
        super().__init__(f"{kind} at {path}: {message}")


@dataclass(frozen=True)
class TaskSpec:
    """What the child is asked to do, plus its declared code targets."""

    description: str
    constraints: tuple[str, ...] = ()
    expected_outcome: str = ""
    referenced_files: frozenset[str] = frozenset()
    referenced_symbols: frozenset[str] = frozenset()

    def __post_init__(self):
        if not self.description:
            raise ProtocolError("task description must be nonempty")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "referenced_files", frozenset(self.referenced_files))
        object.__setattr__(self, "referenced_symbols", frozenset(self.referenced_symbols))


@dataclass(frozen=True)
class ExecutionContext:
    repo_path: str
    current_file: str = ""
    line_number: int = 0
    pending_changes: tuple[Diff, ...] = ()

    def __post_init__(self):
        if isinstance(self.line_number, bool) or not isinstance(self.line_number, int):
            raise ProtocolError(f"line_number must be an integer, got {self.line_number!r}")
        if self.line_number < 0:
            raise ProtocolError("line_number must be >= 0")
        object.__setattr__(self, "pending_changes", tuple(self.pending_changes))


class ActionKind(str, Enum):
    DECISION = "decision"
    EDIT = "edit"
    TOOL_CALL = "tool_call"
    OBSERVATION = "observation"


@dataclass(frozen=True)
class Action:
    """One step of a child's execution trace."""

    step: int
    kind: ActionKind
    summary: str

    def __post_init__(self):
        object.__setattr__(self, "step", int(self.step))
        if not isinstance(self.kind, ActionKind):
            object.__setattr__(self, "kind", ActionKind(self.kind))


class ChildStatus(str, Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    PARTIAL = "partial"


@dataclass(frozen=True)
class SpawnPackage:
    spawn_id: str
    parent_id: str
    timestamp: float
    memory: Mapping[MemoryTier, tuple[MemoryItem, ...]]
    skills: tuple[Skill, ...]
    context: ExecutionContext
    task: TaskSpec
    metrics: ComplexityMetrics
    score: float

    def __post_init__(self):
        grouped = {tier: tuple(self.memory.get(tier, ())) for tier in TIER_ORDER}
        object.__setattr__(self, "memory", grouped)
        object.__setattr__(self, "skills", tuple(self.skills))
        object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "score", float(self.score))

    def memory_items(self) -> Iterator[MemoryItem]:
        for tier in TIER_ORDER:
            yield from self.memory[tier]


@dataclass(frozen=True)
class ResultPayload:
    output: str
    code_diff: tuple[Diff, ...] = ()
    files_modified: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "code_diff", tuple(self.code_diff))
        object.__setattr__(self, "files_modified", frozenset(self.files_modified))


@dataclass(frozen=True)
class ChildMetrics:
    tokens_used: int
    api_calls: int
    test_pass_rate: float

    def __post_init__(self):
        object.__setattr__(self, "tokens_used", int(self.tokens_used))
        object.__setattr__(self, "api_calls", int(self.api_calls))
        object.__setattr__(self, "test_pass_rate", float(self.test_pass_rate))


@dataclass(frozen=True)
class ResumePackage:
    spawn_id: str
    status: ChildStatus
    execution_time: float
    result: ResultPayload
    trace: tuple[Action, ...] = ()
    skills_learned: tuple[Skill, ...] = ()
    metrics: ChildMetrics = ChildMetrics(0, 0, 0.0)

    def __post_init__(self):
        if not isinstance(self.status, ChildStatus):
            object.__setattr__(self, "status", ChildStatus(self.status))
        object.__setattr__(self, "execution_time", float(self.execution_time))
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "skills_learned", tuple(self.skills_learned))


def sequential_ids(prefix: str = "spawn") -> Iterator[str]:
    """Deterministic per-run id stream, e.g. spawn-0001, spawn-0002."""
    return (f"{prefix}-{n:04d}" for n in itertools.count(1))


def _fresh_uuid() -> str:
    return f"spawn-{uuid.uuid4().hex[:12]}"


def build_spawn_package(
    parent_id: str,
    task: TaskSpec,
    memory_slice: MemorySlice,
    skills: Sequence[Skill],
    context: ExecutionContext,
    metrics: ComplexityMetrics,
    score: float,
    clock,
    id_source: Callable[[], str] | None = None,
) -> SpawnPackage:
    """Assemble the immutable snapshot handed to a child.

    ``clock`` is either a number of run-relative seconds or an object
    with a ``now`` attribute. Without an ``id_source`` a random unique id
    is used; the runtime passes a sequential stream so runs replay
    byte-identically.
    """
    if not 0.0 <= score <= 1.0:
        raise ProtocolError(f"spawn score must be in [0, 1], got {score}")
    timestamp = float(getattr(clock, "now", clock))
    spawn_id = id_source() if id_source is not None else _fresh_uuid()
    grouped = {tier: memory_slice.by_tier(tier) for tier in TIER_ORDER}
    return SpawnPackage(
        spawn_id=spawn_id,
        parent_id=parent_id,
        timestamp=timestamp,
        memory=grouped,
        skills=tuple(skills),
        context=context,
        task=task,
        metrics=metrics,
        score=score,
    )


def encode_package(package: SpawnPackage | ResumePackage) -> bytes:
    """Canonical UTF-8 JSON bytes; deterministic for equal packages."""
    from .schema import package_bytes  # the schema is built on this module's types

    return package_bytes(package)


def decode_package(data: bytes | str) -> SpawnPackage | ResumePackage:
    """Parse canonical bytes back into a validated package.

    Unknown keys, missing keys, and out-of-range values raise distinct
    ``PackageDecodeError``s.
    """
    from .schema import package_from_data

    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise PackageDecodeError("bad_json", "$", str(exc))
    return package_from_data(obj)


def write_checkpoint(package: SpawnPackage | ResumePackage, directory: str | Path) -> Path:
    """Persist a package as ``spawn_<id>.json`` or ``resume_<id>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prefix = "spawn" if isinstance(package, SpawnPackage) else "resume"
    path = directory / f"{prefix}_{package.spawn_id}.json"
    path.write_bytes(encode_package(package))
    return path


def read_checkpoint(path: str | Path) -> SpawnPackage | ResumePackage:
    return decode_package(Path(path).read_bytes())


def check_files_modified(result: ResultPayload) -> None:
    diff_files = {d.file for d in result.code_diff}
    missing = sorted(diff_files - result.files_modified)
    extra = sorted(result.files_modified - diff_files)
    if missing or extra:
        detail = [f"{name} {files}" for name, files in (("missing", missing), ("extra", extra)) if files]
        raise ProtocolError("files_modified inconsistent with code_diff: " + ", ".join(detail))


def check_trace_order(trace: Sequence[Action]) -> None:
    for prev, cur in zip(trace, trace[1:]):
        if cur.step <= prev.step:
            raise ProtocolError(f"trace steps not strictly increasing ({prev.step} then {cur.step})")


Summarizer = Callable[[Sequence[Action]], Sequence[Action]]


def summarize_trace(trace: Sequence[Action], summarizer: Summarizer | None = None) -> tuple[Action, ...]:
    """Compress a trace to its key actions.

    The default keeps every decision plus the first and last action,
    deduplicated, in step order. A pluggable backend may return any
    non-empty subset in strictly increasing step order; anything else
    is rejected.
    """
    trace = tuple(trace)
    if not trace:
        return ()
    if summarizer is None:
        keep = {id(a) for a in trace if a.kind is ActionKind.DECISION}
        keep.add(id(trace[0]))
        keep.add(id(trace[-1]))
        return tuple(a for a in trace if id(a) in keep)
    summary = tuple(summarizer(trace))
    if not summary:
        raise ProtocolError("summarizer returned an empty summary for a nonempty trace")
    allowed = set(trace)
    for action in summary:
        if action not in allowed:
            raise ProtocolError(f"summarizer invented an action at step {action.step}")
    for prev, cur in zip(summary, summary[1:]):
        if cur.step <= prev.step:
            raise ProtocolError(
                f"summarizer returned out-of-order steps ({prev.step} then {cur.step})"
            )
    return summary


def validate_resume(resume: ResumePackage, spawn: SpawnPackage) -> list[str]:
    """Enumerate everything wrong with a child's result. Side-effect free;
    an empty list means the result is safe to replay."""
    errors: list[str] = []
    if resume.spawn_id != spawn.spawn_id:
        errors.append(f"wrong child: resume {resume.spawn_id!r} does not match spawn {spawn.spawn_id!r}")
    if not isinstance(resume.status, ChildStatus):
        errors.append(f"invalid status {resume.status!r}")
    if resume.execution_time < 0:
        errors.append(f"execution_time must be >= 0, got {resume.execution_time}")
    if resume.metrics.tokens_used < 0:
        errors.append("tokens_used must be >= 0")
    if resume.metrics.api_calls < 0:
        errors.append("api_calls must be >= 0")
    if not 0.0 <= resume.metrics.test_pass_rate <= 1.0:
        errors.append(f"test_pass_rate must be in [0, 1], got {resume.metrics.test_pass_rate}")
    checks = (
        (check_files_modified, resume.result),
        (combine_diffs, resume.result.code_diff),
        (check_trace_order, resume.trace),
    )
    for check, value in checks:
        try:
            check(value)
        except ValueError as exc:
            errors.append(str(exc))
    return errors


@dataclass
class ParentState:
    """Everything the parent resumes into: memory, skills, working tree,
    plus the staging area the coherence merge drains at the join point."""

    memory: MemoryStore
    skills: SkillLibrary
    files: dict[str, list[str]] = field(default_factory=dict)
    staged: list[tuple[str, list[Diff]]] = field(default_factory=list)
    followups: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class ReplayConfig:
    embedder: Embedder
    promote_threshold: float = 0.8
    summarizer: Summarizer | None = None


@dataclass
class ReplayReport:
    spawn_id: str
    status: ChildStatus
    summary_actions: int = 0
    memory_items_added: int = 0
    skills_promoted: int = 0
    skill_warnings: tuple[str, ...] = ()
    diffs_staged: int = 0
    diffs_rejected: tuple[str, ...] = ()


def replay_resume(state: ParentState, resume: ResumePackage, config: ReplayConfig) -> ReplayReport:
    """Integrate a validated child result into the parent, in four steps:
    summarize the trace, fold summary and output into episodic memory,
    promote learned skills, and stage diffs for the coherence merge.

    A failed child contributes memory only. A partial child stages only
    the diffs that apply cleanly; rejected diffs are recorded, never
    silently dropped.
    """
    report = ReplayReport(spawn_id=resume.spawn_id, status=resume.status)
    now = state.memory.current_step

    summary = summarize_trace(resume.trace, config.summarizer)
    report.summary_actions = len(summary)

    for n, action in enumerate(summary):
        content = f"child {resume.spawn_id} {action.kind.value} at step {action.step}: {action.summary}"
        state.memory.add(
            MemoryItem(
                id=f"{resume.spawn_id}:trace:{n}",
                tier=MemoryTier.EPISODIC,
                content=content,
                created_at_step=now,
                embedding=tuple(config.embedder(content)),
            )
        )
    output_content = f"child {resume.spawn_id} finished {resume.status.value}: {resume.result.output}"
    state.memory.add(
        MemoryItem(
            id=f"{resume.spawn_id}:output",
            tier=MemoryTier.EPISODIC,
            content=output_content,
            created_at_step=now,
            embedding=tuple(config.embedder(output_content)),
        )
    )
    report.memory_items_added = len(summary) + 1

    if resume.status is not ChildStatus.FAILURE:
        stamped = [
            s if s.success_stat is not None else replace(s, success_stat=resume.metrics.test_pass_rate)
            for s in resume.skills_learned
        ]
        promotion = promote_skills(state.skills, stamped, config.promote_threshold)
        report.skills_promoted = promotion.promoted
        report.skill_warnings = tuple(promotion.warnings)

        staged: list[Diff] = []
        rejected: list[str] = []
        for diff in resume.result.code_diff:
            if diff_applies(state.files.get(diff.file, []), diff):
                staged.append(diff)
            else:
                rejected.append(f"{diff.file}: diff does not apply to parent snapshot")
        if staged:
            state.staged.append((resume.spawn_id, staged))
        report.diffs_staged = len(staged)
        report.diffs_rejected = tuple(rejected)

    return report
