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
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from .coherence import Diff, combine_diffs, diff_applies
from .memory import MAX_INT, MemoryItem, MemorySlice, MemoryStore, MemoryTier, TIER_ORDER, Embedder, make_item
from .policy import ComplexityMetrics
from .skills import Skill, SkillLibrary, promote_skills


# Parts joined per checkpoint write: a fork_20k spawn package (9 MB in
# 20k parts) takes 79 writes, about 7 ms; one joined write took 9 ms and
# ``writelines`` through an 8 KB buffer 16 ms (2-vCPU VM, Python 3.11.7).
WRITE_PARTS = 256


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
        if not 0 <= self.line_number <= MAX_INT:
            raise ProtocolError("line_number must be in [0, 2**53]")
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
        if self.step > MAX_INT:
            raise ProtocolError(f"trace step must be <= 2**53, got {self.step}")
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
        if not self.spawn_id or not self.parent_id:
            raise ProtocolError("spawn_id and parent_id must be nonempty")
        grouped = {tier: tuple(self.memory.get(tier, ())) for tier in TIER_ORDER}
        for tier, items in grouped.items():
            for item in items:
                if item.tier is not tier:
                    raise ProtocolError(f"item {item.id} has tier {item.tier.value}, filed under {tier.value}")
        object.__setattr__(self, "memory", grouped)
        object.__setattr__(self, "skills", tuple(self.skills))
        object.__setattr__(self, "timestamp", float(self.timestamp))
        object.__setattr__(self, "score", float(self.score))
        if not 0.0 <= self.timestamp < math.inf:
            raise ProtocolError(f"timestamp must be finite and >= 0, got {self.timestamp}")
        if not 0.0 <= self.score <= 1.0:
            raise ProtocolError(f"spawn score must be in [0, 1], got {self.score}")


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
        if not (0 <= self.tokens_used <= MAX_INT and 0 <= self.api_calls <= MAX_INT):
            raise ProtocolError("tokens_used and api_calls must be in [0, 2**53]")
        if not 0.0 <= self.test_pass_rate <= 1.0:
            raise ProtocolError(f"test_pass_rate must be finite and in [0, 1], got {self.test_pass_rate}")


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
        if not self.spawn_id:
            raise ProtocolError("spawn_id must be nonempty")
        if not isinstance(self.status, ChildStatus):
            object.__setattr__(self, "status", ChildStatus(self.status))
        object.__setattr__(self, "execution_time", float(self.execution_time))
        if not 0.0 <= self.execution_time < math.inf:
            raise ProtocolError(f"execution_time must be finite and >= 0, got {self.execution_time}")
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "skills_learned", tuple(self.skills_learned))


def sequential_ids(prefix: str = "spawn") -> Iterator[str]:
    """Deterministic per-run id stream, e.g. spawn-0001, spawn-0002."""
    return (f"{prefix}-{n:04d}" for n in itertools.count(1))


def build_spawn_package(
    parent_id: str,
    task: TaskSpec,
    memory_slice: MemorySlice,
    skills: Sequence[Skill],
    context: ExecutionContext,
    metrics: ComplexityMetrics,
    score: float,
    timestamp: float,
    id_source: Callable[[], str],
) -> SpawnPackage:
    """Assemble the immutable snapshot handed to a child at
    ``timestamp`` run-relative seconds. ``id_source`` names the package;
    the runtime passes a sequential stream so runs replay byte-identically.
    """
    spawn_id = id_source()
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
    from .schema import package_parts  # the schema is built on this module's types

    return b"".join(package_parts(package))


def decode_package(data: bytes | str) -> SpawnPackage | ResumePackage:
    """Parse canonical bytes back into a validated package.

    Unknown keys, missing keys, and out-of-range values raise distinct
    ``PackageDecodeError``s; so do bytes that are not JSON or nest too
    deeply for the parser.
    """
    from .schema import package_from_data

    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise PackageDecodeError("bad_json", "$", str(exc))
    return package_from_data(obj)


def write_checkpoint(package: SpawnPackage | ResumePackage, directory: str | Path) -> Path:
    """Persist a package as ``spawn_<id>.json`` or ``resume_<id>.json``,
    the bytes of ``encode_package``. The parts are written
    ``WRITE_PARTS`` at a time, never joined whole, and all of them are
    encoded before the file is opened, so a package that cannot encode
    leaves no file."""
    from .schema import package_parts

    parts = package_parts(package)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prefix = "spawn" if isinstance(package, SpawnPackage) else "resume"
    path = directory / f"{prefix}_{package.spawn_id}.json"
    with path.open("wb") as file:
        for start in range(0, len(parts), WRITE_PARTS):
            file.write(b"".join(parts[start : start + WRITE_PARTS]))
    return path


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


def summarize_trace(trace: Sequence[Action]) -> tuple[Action, ...]:
    """Compress a trace to its key actions: every decision plus the
    first and last action, each once, in trace order."""
    last = len(trace) - 1
    return tuple(a for n, a in enumerate(trace) if n in (0, last) or a.kind is ActionKind.DECISION)


def validate_resume(resume: ResumePackage, spawn: SpawnPackage) -> list[str]:
    """Enumerate everything wrong with a child's result. Side-effect free;
    an empty list means the result is safe to replay."""
    errors: list[str] = []
    if resume.spawn_id != spawn.spawn_id:
        errors.append(f"wrong child: resume {resume.spawn_id!r} does not match spawn {spawn.spawn_id!r}")
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
    the staging area the coherence merge drains at the join point, and
    follow-ups (escalated conflicts, diffs that did not apply)."""

    memory: MemoryStore
    skills: SkillLibrary
    files: dict[str, list[str]] = field(default_factory=dict)
    staged: list[tuple[str, list[Diff]]] = field(default_factory=list)
    followups: list[str] = field(default_factory=list)


def replay_resume(
    state: ParentState, resume: ResumePackage, embedder: Embedder, promote_threshold: float
) -> None:
    """Integrate a validated child result into the parent, in four steps:
    summarize the trace, fold summary and output into episodic memory,
    promote learned skills, and stage diffs for the coherence merge.

    A failed child contributes memory only. A partial child stages only
    the diffs that apply cleanly; a diff that does not apply becomes a
    follow-up for the parent.
    """
    now = state.memory.current_step
    for n, action in enumerate(summarize_trace(resume.trace)):
        content = f"child {resume.spawn_id} {action.kind.value} at step {action.step}: {action.summary}"
        item_id = f"{resume.spawn_id}:trace:{n}"
        state.memory.add(make_item(item_id, MemoryTier.EPISODIC, content, embedder, created_at_step=now))
    output = f"child {resume.spawn_id} finished {resume.status.value}: {resume.result.output}"
    state.memory.add(make_item(f"{resume.spawn_id}:output", MemoryTier.EPISODIC, output, embedder, created_at_step=now))

    if resume.status is ChildStatus.FAILURE:
        return
    stamped = [
        s if s.success_stat is not None else replace(s, success_stat=resume.metrics.test_pass_rate)
        for s in resume.skills_learned
    ]
    promote_skills(state.skills, stamped, promote_threshold)
    staged: list[Diff] = []
    for diff in resume.result.code_diff:
        if diff_applies(state.files.get(diff.file, []), diff):
            staged.append(diff)
        else:
            state.followups.append(f"rework {resume.spawn_id}'s diff to {diff.file}, which does not apply")
    if staged:
        state.staged.append((resume.spawn_id, staged))
