"""Workload files: the scripted scenarios the simulator runs.

A workload bundles the initial memory corpus, the task, a per-step
complexity trajectory, scripted child outcomes keyed by specialization,
and optional conflict-scenario parameters. Files are versioned JSON so
fixtures stay reviewable in the repository.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from json.decoder import WHITESPACE
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
    return _spec(_build_memory(schema.parse_file(schema.WORKLOAD, data, source)))


def load_workload(path: str | Path) -> WorkloadSpec:
    """Read, validate and load a workload file; a file that cannot be
    read or decoded and schema violations raise ``schema.InputError``
    naming the path.

    A file larger than ``READ_CHUNK`` is read in chunks and its memory
    list is decoded, parsed and built one item at a time (see
    ``read_workload``), so the load never holds the file's text, its
    decoded tree or its parsed items whole."""
    spec = read_workload(path)
    if isinstance(spec, list):
        raise schema.InputError(*schema.error_lines(spec, path))
    return spec


def read_workload(path: str | Path) -> WorkloadSpec | list[schema.Error]:
    """The spec of the workload file at ``path``, or the list of its
    schema errors; a file that cannot be read or decoded raises
    ``schema.InputError`` naming the path. ``load_workload`` and
    ``agentfork validate`` both read through it.

    A file larger than ``READ_CHUNK`` characters is streamed: its
    top-level object is decoded one value at a time and its memory list
    one element at a time, each element parsed and its item built
    before the next is decoded. The result, errors included, is what
    ``read_json`` and ``workload_from_data`` give, with duplicate keys
    resolved as ``json.loads`` resolves them (the last one wins). A
    smaller file, and one the stream cannot give that result for as it
    goes (the file cannot be read or decoded, its top level is no
    object, it has no memory list, its memory list comes before a valid
    ``embedding_dim`` or is built with one a later key replaces, or an
    item fails to build),
    is decoded whole through ``read_json``, which raises the error of a
    file it cannot read or decode."""
    streamed = _stream(path)
    fields = schema.parse(schema.WORKLOAD, schema.read_json(path) if streamed is None else streamed, schema.FILE)
    if isinstance(fields, list):
        return fields
    return _spec(fields if streamed is not None else _build_memory(fields))


# Characters read from a workload file at a time.
READ_CHUNK = 1 << 16

_DECODE = json.JSONDecoder().raw_decode
# What may follow a JSON value. A number cut at the end of the text read
# so far would decode short, and the stream would then fail and start
# over, so a value counts only once one of these follows it (or the
# file ends).
_DELIMITERS = frozenset(" \t\n\r,:]}")


class _Restart(ValueError):
    """The stream cannot give the result of decoding the file whole."""


class _Text:
    """The text of an open file, read ``READ_CHUNK`` characters at a
    time; ``buf[pos:]`` is what has been read and not yet decoded."""

    def __init__(self, file):
        self.file, self.buf, self.pos, self.eof = file, "", 0, False

    def _more(self) -> None:
        # At least as much as is pending, so a long value decoded again
        # after each read costs time linear in its length.
        rest = self.buf[self.pos :]
        chunk = self.file.read(max(READ_CHUNK, len(rest)))
        self.buf, self.pos, self.eof = rest + chunk, 0, not chunk

    def peek(self) -> str:
        """The next character after whitespace, "" at the end."""
        while True:
            self.pos = WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if self.eof:
                return ""
            self._more()

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise _Restart
        self.pos += 1

    def value(self):
        """The next JSON value."""
        self.peek()
        while True:
            try:
                value, end = _DECODE(self.buf, self.pos)
            except json.JSONDecodeError:
                if self.eof:
                    raise
            else:
                if self.eof or end < len(self.buf) and self.buf[end] in _DELIMITERS:
                    self.pos = end
                    return value
            self._more()


def _stream(path: str | Path) -> dict | None:
    """The top-level object of the workload file at ``path`` with each
    ``memory`` list a ``schema.ListStream`` of its built items, or None
    when the file must be decoded whole."""
    try:
        # A file of one chunk or less is decoded whole: streaming it
        # would hold no less, and decoding it one value at a time took
        # 35% longer on an 8 KB file (a fresh process on a 2-vCPU VM).
        if os.path.getsize(path) <= READ_CHUNK:
            return None
        with open(path, encoding="utf-8", newline="") as file:
            text = _Text(file)
            text.expect("{")
            top: dict = {}
            built_with = None
            if text.peek() != "}":
                while True:
                    key = text.value()
                    if type(key) is not str:
                        raise _Restart
                    text.expect(":")
                    if key == "memory" and text.peek() == "[":
                        built_with = top.get("embedding_dim")
                        top[key] = _stream_memory(text, built_with)
                    else:
                        top[key] = text.value()
                    if text.peek() != ",":
                        break
                    text.pos += 1
            text.expect("}")
            if text.peek():
                raise _Restart
    except (OSError, ValueError, RecursionError):
        # Decode errors and an item that fails to build are ValueErrors;
        # decoding the file whole reports each as it always has.
        return None
    # A file with no streamed memory list is decoded whole, whose build
    # gives the spec a list where the schema's default is a tuple.
    if not isinstance(top.get("memory"), schema.ListStream) or built_with != top.get("embedding_dim"):
        return None
    return top


def _stream_memory(text: _Text, dim) -> schema.ListStream:
    """The memory list at ``text``, each element parsed and its item
    built before the next is decoded."""
    if isinstance(schema.parse(schema.EMBEDDING_DIM, dim, schema.FILE), list):
        raise _Restart
    stream = schema.ListStream.of(schema.WORKLOAD, "memory")
    build = _item_builder(dim)
    items = []
    text.expect("[")
    if text.peek() != "]":
        while True:
            parsed = stream.parse(text.value())
            if parsed is not None:
                items.append(build(parsed))
            if text.peek() != ",":
                break
            text.pos += 1
    text.expect("]")
    stream.value = items
    return stream


def _item_builder(dim: int):
    """``build(fields)``, the item of one parsed memory entry.

    Each distinct content is embedded once, through one
    ``DefaultEmbedder``. Items with equal content share one content
    string and one embedding tuple, and items with equal reference sets
    share one frozenset; ``MemoryItem`` keeps all three as given."""
    embedder = DefaultEmbedder(dim)
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

    return lambda fields: build_item(**fields)


def _build_memory(fields: dict) -> dict:
    """``fields`` with ``memory``'s parsed item dicts replaced by their
    items, each dict freed once its item is built."""
    parsed_items = list(reversed(fields.pop("memory")))
    build = _item_builder(fields["embedding_dim"])
    memory = fields["memory"] = []
    while parsed_items:
        memory.append(build(parsed_items.pop()))
    return fields


def _spec(fields: dict) -> WorkloadSpec:
    """The spec of a parsed workload whose memory items are built."""
    conflicts = fields["conflicts"]
    return WorkloadSpec(
        name=fields["name"],
        embedding_dim=fields["embedding_dim"],
        task=fields["task"],
        memory=fields["memory"],
        skills=list(fields["skills"]) or list(DEFAULT_SKILLS),
        base_files={path: list(lines) for path, lines in fields["base_files"].items()},
        trajectory=list(fields["trajectory"]),
        child_outcomes=dict(fields["child_outcomes"]),
        conflicts=None if conflicts is None else ConflictScenarioParams(**conflicts),
    )


def workload_to_data(spec: WorkloadSpec) -> dict:
    """Inverse of parsing; embeddings are derived, so they are not stored."""
    return schema.WORKLOAD.encode(spec, schema.FILE)


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
