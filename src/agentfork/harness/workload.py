"""Workload files: the scripted scenarios the simulator runs.

A workload bundles the initial memory corpus, the task, a per-step
complexity trajectory, scripted child outcomes keyed by specialization,
and optional conflict-scenario parameters. Files are versioned JSON so
fixtures stay reviewable in the repository.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .. import schema
from ..memory import DefaultEmbedder, MemoryItem, MemoryStore, make_item
from ..policy import ComplexityMetrics
from ..protocol import TaskSpec
from ..runtime import LoopWorkload, ScriptedOutcome
from ..skills import Skill, SkillLibrary

DEFAULT_SKILLS = (
    Skill(id="write-tests", template="Write focused unit tests for {function} covering edge cases"),
    Skill(id="refactor-module", template="Refactor {module} for clarity without changing behavior"),
    Skill(id="summarize-context", template="Summarize the working context before splitting the task"),
)


@dataclass(frozen=True)
class ConflictScenarioParams:
    count: int
    line_disjoint_fraction: float
    semantic_success_p: float


@dataclass
class WorkloadSpec:
    name: str
    embedding_dim: int
    task: TaskSpec
    memory: list[MemoryItem]
    skills: list[Skill]
    base_files: dict[str, list[str]]
    trajectory: list[ComplexityMetrics]
    child_outcomes: dict[str, ScriptedOutcome]
    conflicts: ConflictScenarioParams | None = None

    def build_store(self) -> MemoryStore:
        base_step = max((item.created_at_step for item in self.memory), default=0)
        return MemoryStore(self.embedding_dim, base_step, self.memory)

    def build_library(self) -> SkillLibrary:
        return SkillLibrary(self.skills)

    def loop_workload(self) -> LoopWorkload:
        return LoopWorkload(
            task=self.task,
            store=self.build_store(),
            skills=self.build_library(),
            files={path: list(lines) for path, lines in self.base_files.items()},
            trajectory=list(self.trajectory),
        )


def validate_workload_data(data) -> list[str]:
    """Field-path errors of raw workload JSON, empty when the document is
    valid. A valid document loads and runs to completion."""
    parsed = schema.parse(schema.WORKLOAD, data, schema.FILE)
    return schema.error_lines(parsed) if isinstance(parsed, list) else []


def workload_from_data(data, source: str | Path | None = None) -> WorkloadSpec:
    """Parse workload JSON in one pass and derive item embeddings;
    schema violations raise ``schema.InputError`` with field paths, each after
    ``source`` when it is given. ``data`` is never changed."""
    return _workload_from_fields(schema.parse_file(schema.WORKLOAD, data, source))


def load_workload(path: str | Path) -> WorkloadSpec:
    """Parse and validate a workload file; a file that cannot be read and
    schema violations raise ``schema.InputError`` naming the path.

    The decoded JSON is parsed straight from ``read_json``, so nothing
    holds it once the parse returns, before any item is built."""
    return _workload_from_fields(schema.parse_file(schema.WORKLOAD, schema.read_json(path), path))


def _workload_from_fields(fields: dict) -> WorkloadSpec:
    """The spec of a parsed workload; takes ``fields["memory"]``.

    Each distinct content is embedded once, through one
    ``DefaultEmbedder``. Items with equal content share one content
    string and one embedding tuple, and items with equal reference sets
    share one frozenset; ``MemoryItem`` keeps all three as given. Each
    parsed item dict is freed once its item is built, so the corpus is
    held in one form, plus the items in flight."""
    parsed_items = list(reversed(fields.pop("memory")))
    embedder = DefaultEmbedder(fields["embedding_dim"])
    embeddings: dict[str, tuple[float, ...]] = {}
    shared: dict = {}

    def share(value):
        return shared.setdefault(value, value)

    def embed(content: str) -> tuple[float, ...]:
        embedding = embeddings.get(content)
        if embedding is None:
            embedding = embeddings[content] = embedder(content)
        return embedding

    def build_item(content, referenced_files, referenced_symbols, **rest) -> MemoryItem:
        return make_item(
            content=share(content),
            referenced_files=share(frozenset(referenced_files)),
            referenced_symbols=share(frozenset(referenced_symbols)),
            embedder=embed,
            **rest,
        )

    memory = []
    while parsed_items:
        memory.append(build_item(**parsed_items.pop()))
    conflicts = fields["conflicts"]
    return WorkloadSpec(
        name=fields["name"],
        embedding_dim=fields["embedding_dim"],
        task=fields["task"],
        memory=memory,
        skills=list(fields["skills"]) or list(DEFAULT_SKILLS),
        base_files={path: list(lines) for path, lines in fields["base_files"].items()},
        trajectory=list(fields["trajectory"]),
        child_outcomes=dict(fields["child_outcomes"]),
        conflicts=None if conflicts is None else ConflictScenarioParams(**conflicts),
    )


def workload_to_data(spec: WorkloadSpec) -> dict:
    """Inverse of parsing; embeddings are derived, so they are not stored."""
    return schema.encode(schema.WORKLOAD, spec, schema.FILE)


def save_workload(spec: WorkloadSpec, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(workload_to_data(spec), indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


def list_bundled_workloads() -> list[str]:
    package = resources.files("agentfork") / "workloads"
    return sorted(p.name[: -len(".json")] for p in package.iterdir() if p.name.endswith(".json"))


def bundled_workload_path(name: str) -> Path:
    """Filesystem path of a workload shipped with the package."""
    candidate = resources.files("agentfork") / "workloads" / f"{name}.json"
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise schema.InputError(f"{name}: no such file or bundled workload")
        return Path(path)
