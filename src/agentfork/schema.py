"""The JSON shape of every agentfork type, in one place.

Two formats share one field table per type:

- the **wire** format of spawn/resume packages (and checkpoints): every
  key is required, and parsing stops at the first error;
- the **file** format of workload files: a key with a default may be
  left out, a field marked ``file=False`` is never written and always
  takes its default, and parsing collects every error.

In both, unknown keys are errors, integers must be JSON integers and
numbers must be finite. ``encode`` builds the JSON object of a value
from its table; ``parse`` checks and builds in one pass and returns the
value or a list of ``(kind, path, message)`` errors. A ``ValueError``
raised by a constructor becomes an error at the path of the object it
was building.

``package_bytes`` writes a package's compact wire text straight from
the same tables, byte for byte what ``json.dumps`` (``ensure_ascii=False``,
``allow_nan=False``, no spaces) writes for its ``encode`` object, without
building that object. Each distinct float is formatted once per call,
up to ``FLOAT_MEMO`` of them.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Any, Callable

from .coherence import Diff, Hunk, combine_diffs
from .memory import TIER_ORDER, MemoryItem, MemoryTier
from .policy import ComplexityMetrics, Specialization
from .protocol import (
    Action,
    ActionKind,
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    PackageDecodeError,
    ProtocolError,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    check_files_modified,
    check_trace_order,
)
from .runtime import NestedSpawn, ScriptedOutcome
from .skills import Provenance, Skill

WIRE = "wire"
FILE = "file"

SCHEMA_VERSION = 1
# Integers beyond 2**53 lose precision in most JSON readers and overflow
# the float arithmetic of the report.
MAX_INT = 2**53
# Each memory item holds a dense embedding of this many floats.
MAX_EMBEDDING_DIM = 4096
# Distinct floats whose wire text one ``package_bytes`` call keeps. Past
# this many the rest are formatted directly: a memo of every distinct
# float of a large package costs more than it saves.
FLOAT_MEMO = 4096

Error = tuple[str, str, str]
REQUIRED = object()
_BAD = object()


class _Pass:
    """Error sink of one parse pass; the wire format raises the first
    error. A value is reached by its parent's path and its own key;
    paths are ``(parent, key)`` links, spelled out only for an error."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.errors: list[Error] = []

    def fail(self, kind: str, parent, key, message: str):
        if self.fmt == WIRE:
            raise PackageDecodeError(kind, _path_text(parent, key), message)
        self.errors.append((kind, _path_text(parent, key), message))
        return _BAD


def _path_text(parent, key) -> str:
    parts = []
    while True:
        if key is not None:
            parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
        if parent is None:
            break
        parent, key = parent
    text = "".join(reversed(parts))
    return text[1:] if text.startswith(".") else text or "$"


class _FloatTexts(dict):
    """The wire text of each float one ``package_bytes`` call has
    formatted, at most ``FLOAT_MEMO`` of them. The only float list on
    the wire is an embedding, which ``MemoryItem`` holds as exact
    floats, so ``repr`` is ``float.__repr__`` without the slot call."""

    def __missing__(self, value):
        text = repr(value)
        if len(self) < FLOAT_MEMO:
            self[value] = text
        return text

    def join(self, values) -> str:
        """The comma-separated wire texts of ``values``."""
        # A dict key holds -0.0 as 0.0, so a list that may hold -0.0
        # skips the memo, as does every list once the memo is full.
        direct = len(self) >= FLOAT_MEMO or _maybe_negative_zero(values)
        return _finite(",".join(map(repr if direct else self.__getitem__, values)))


def _finite(text: str) -> str:
    # "nan", "inf" and "-inf" are the only float texts with an "n".
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


@functools.lru_cache(maxsize=64)
def _packer(length: int):
    return struct.Struct(f"<{length}d").pack


def _maybe_negative_zero(values) -> bool:
    """False when no value is -0.0. The high byte of -0.0 is 0x80; so
    is that of a few tiny negatives."""
    return 0x80 in _packer(len(values))(*values)[7::8]


class Type:
    """A JSON value: ``parse(value, parent, key, p)`` checks and builds
    it, ``encode`` builds its JSON object, ``wire`` returns its compact
    wire text and ``write`` appends that text to a buffer. ``floats``
    is the float memo of one ``package_bytes`` call."""

    def encode(self, value, fmt: str):
        return value

    def wire_items(self, values, floats) -> str:
        """The wire texts of a list's elements, comma-separated."""
        return ",".join([self.wire(v, floats) for v in values])

    def write(self, value, out: bytearray, floats) -> None:
        out += self.wire(value, floats).encode()


class Str(Type):
    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty

    def wire(self, value, floats):
        return encode_basestring(value)

    def wire_items(self, values, floats):
        return ",".join(map(encode_basestring, values))

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, str):
            return p.fail("bad_type", parent, key, "expected string")
        if self.nonempty and not value:
            return p.fail("bad_value", parent, key, "must be nonempty")
        return value


class Int(Type):
    def __init__(self, lo: int | None = None, hi: int = MAX_INT):
        self.lo, self.hi = lo, hi

    def parse(self, value, parent, key, p: _Pass):
        if isinstance(value, bool) or not isinstance(value, int):
            return p.fail("bad_type", parent, key, "expected integer")
        if self.lo is not None and value < self.lo or value > self.hi:
            return p.fail("out_of_range", parent, key, f"{value} outside [{self.lo}, {self.hi}]")
        return value

    def wire(self, value, floats):
        return int.__repr__(value)


class Num(Type):
    """A finite number, held as a float."""

    def __init__(self, lo: float | None = None, hi: float | None = None):
        self.lo, self.hi = lo, hi

    def parse(self, value, parent, key, p: _Pass):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return p.fail("bad_type", parent, key, "expected number")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            return p.fail("bad_value", parent, key, "must be finite")
        if self.lo is not None and number < self.lo or self.hi is not None and number > self.hi:
            return p.fail("out_of_range", parent, key, f"{value} outside [{self.lo}, {self.hi}]")
        return number

    def wire(self, value, floats):
        return _finite(float.__repr__(value))

    def wire_items(self, values, floats):
        return floats.join(values)


class OneOf(Type):
    """A string naming a member of an ``Enum``."""

    def __init__(self, enum: type[Enum]):
        self.enum = enum
        self.members = {m.value: m for m in enum}
        self.texts = {m: encode_basestring(m.value) for m in enum}

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, str):
            return p.fail("bad_type", parent, key, "expected string")
        if value not in self.members:
            return p.fail("bad_value", parent, key, f"unknown {self.enum.__name__} {value!r}")
        return self.members[value]

    def encode(self, value, fmt):
        return value.value

    def wire(self, value, floats):
        return self.texts[value]


class Nullable(Type):
    def __init__(self, inner: Type):
        self.inner = inner

    def parse(self, value, parent, key, p: _Pass):
        return None if value is None else self.inner.parse(value, parent, key, p)

    def encode(self, value, fmt):
        return None if value is None else self.inner.encode(value, fmt)

    def wire(self, value, floats):
        return "null" if value is None else self.inner.wire(value, floats)


class ListOf(Type):
    """A list, held as a tuple. ``unique`` names a key whose string
    values must not repeat across the list's objects; ``sort`` writes
    the list sorted (for values held as sets)."""

    def __init__(
        self, item: Type, unique: str | None = None, nonempty: bool = False, sort: bool = False
    ):
        self.item, self.unique, self.nonempty, self.sort = item, unique, nonempty, sort
        self.plain = type(item).encode is Type.encode
        self.strings = type(item) is Str and not item.nonempty

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, list):
            return p.fail("bad_type", parent, key, "expected list")
        if self.nonempty and not value:
            return p.fail("bad_value", parent, key, "must be nonempty")
        if self.strings and all(isinstance(v, str) for v in value):
            return tuple(value)
        here, out, seen, ok = (parent, key), [], set(), True
        for i, element in enumerate(value):
            if self.unique and isinstance(element, dict):
                name = element.get(self.unique)
                if isinstance(name, str):
                    if name in seen:
                        p.fail("bad_value", (here, i), self.unique, f"duplicate {name!r}")
                        ok = False
                    seen.add(name)
            parsed = self.item.parse(element, here, i, p)
            if parsed is _BAD:
                ok = False
            out.append(parsed)
        return tuple(out) if ok else _BAD

    def encode(self, value, fmt):
        if self.sort:
            return sorted(value)
        return list(value) if self.plain else [self.item.encode(v, fmt) for v in value]

    def wire(self, value, floats):
        return "[" + self.item.wire_items(sorted(value) if self.sort else value, floats) + "]"

    def write(self, value, out, floats):
        # One element's text at a time: no copy of the whole list's text.
        out += b"["
        for i, element in enumerate(sorted(value) if self.sort else value):
            if i:
                out += b","
            out += self.item.wire(element, floats).encode()
        out += b"]"


class MapOf(Type):
    """An object with free-form string keys, held as a dict."""

    def __init__(self, value_type: Type):
        self.value_type = value_type

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, dict):
            return p.fail("bad_type", parent, key, "expected object")
        here = (parent, key)
        out = {k: self.value_type.parse(v, here, k, p) for k, v in value.items()}
        return _BAD if any(v is _BAD for v in out.values()) else out

    def encode(self, value, fmt):
        return {k: self.value_type.encode(v, fmt) for k, v in dict(value).items()}

    def wire(self, value, floats):
        wire = self.value_type.wire
        pairs = [encode_basestring(k) + ":" + wire(v, floats) for k, v in dict(value).items()]
        return "{" + ",".join(pairs) + "}"


@dataclass(frozen=True)
class Field:
    """One JSON key of a table.

    ``attr`` is the keyword the table's builder takes and the attribute
    ``encode`` reads (``get`` overrides the read). ``default`` is used
    when the key is absent from a workload file; ``file=False`` keeps
    the key out of workload files, so there its default always applies.
    """

    key: str
    type: Type
    attr: str = ""
    default: Any = REQUIRED
    file: bool = True
    get: Callable | None = None


class Table(Type):
    """A JSON object with fixed keys in a fixed order, built by ``build``
    (``file_build`` in the file format). ``checks`` are ``(key, fn)``
    pairs run on the built value; a ``ValueError`` from ``fn`` is an
    error at that key."""

    def __init__(self, build, fields, file_build=None, checks=()):
        self.checks = checks
        self.build = {WIRE: build, FILE: file_build or build}
        self.fields = {WIRE: [], FILE: []}
        self.fixed: dict[str, dict] = {WIRE: {}, FILE: {}}
        self.encoders: dict[str, list] = {WIRE: [], FILE: []}
        # (text before the value, getter, type) per wire key.
        self.writers = []
        for f in fields:
            attr = f.attr or f.key
            entry = (f.key, attr, f.type, f.default)
            getter = f.get or attrgetter(attr)
            prefix = ("," if self.writers else "{") + encode_basestring(f.key) + ":"
            self.writers.append((prefix, getter, f.type))
            for fmt in (WIRE, FILE):
                if fmt == WIRE or f.file:
                    self.fields[fmt].append(entry)
                    self.encoders[fmt].append((f.key, getter, f.type.encode))
                elif f.default is not REQUIRED:
                    self.fixed[fmt][attr] = f.default
        self.keys = {fmt: {f[0] for f in self.fields[fmt]} for fmt in (WIRE, FILE)}

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, dict):
            return p.fail("bad_type", parent, key, "expected object")
        fmt, here = p.fmt, (parent, key)
        kwargs = dict(self.fixed[fmt])
        ok, found = True, 0
        for name, attr, type_, default in self.fields[fmt]:
            if name in value:
                found += 1
                parsed = type_.parse(value[name], here, name, p)
            elif fmt == FILE and default is not REQUIRED:
                parsed = default
            else:
                parsed = p.fail("missing_key", here, name, "required key missing")
            if parsed is _BAD:
                ok = False
            kwargs[attr] = parsed
        if found < len(value):
            for name in value:
                if name not in self.keys[fmt]:
                    p.fail("unknown_key", here, name, "unknown key")
                    ok = False
        if not ok:
            return _BAD
        try:
            built = self.build[fmt](**kwargs)
        except ValueError as exc:
            return p.fail("bad_value", parent, key, str(exc))
        for name, check in self.checks:
            try:
                check(built)
            except ValueError as exc:
                return p.fail("bad_value", here, name, str(exc))
        return built

    def encode(self, value, fmt: str) -> dict:
        return {key: enc(get(value), fmt) for key, get, enc in self.encoders[fmt]}

    def wire(self, value, floats):
        parts = [prefix + type_.wire(get(value), floats) for prefix, get, type_ in self.writers]
        return "".join(parts) + "}"

    def write(self, value, out, floats):
        for prefix, get, type_ in self.writers:
            out += prefix.encode()
            type_.write(get(value), out, floats)
        out += b"}"


def parse(table: Table, data, fmt: str, root: str | None = None):
    """Build the value ``data`` describes, or return the list of its
    errors. The wire format raises the first error as
    ``PackageDecodeError`` instead."""
    p = _Pass(fmt)
    value = table.parse(data, None, root, p)
    return p.errors if value is _BAD else value


def encode(table: Table, value, fmt: str) -> dict:
    """The JSON object of ``value``, keys in table order."""
    return table.encode(value, fmt)


NONEMPTY = Str(nonempty=True)
TEXT = Str()
LINES = ListOf(TEXT)
NAMES = ListOf(TEXT, sort=True)
COUNT = Int(lo=0)
NONNEG = Num(lo=0.0)
UNIT = Num(0.0, 1.0)

HUNK = Table(
    Hunk,
    [
        Field("start_line", Int(lo=1)),
        Field("old_lines", LINES, default=()),
        Field("new_lines", LINES, default=()),
    ],
)
# Workload files may list a diff's hunks in any order.
DIFF = Table(
    Diff,
    [Field("file", NONEMPTY), Field("hunks", ListOf(HUNK), default=())],
    file_build=lambda file, hunks: Diff(file, tuple(sorted(hunks, key=Hunk.span))),
)
DIFFS = ListOf(DIFF)


def _skill_table(provenance: Provenance, success_stat_in_file: bool) -> Table:
    return Table(
        Skill,
        [
            Field("id", NONEMPTY),
            Field("template", TEXT),
            Field("params", MapOf(TEXT), default={}),
            Field("provenance", OneOf(Provenance), default=provenance, file=False),
            Field("success_stat", Nullable(UNIT), default=None, file=success_stat_in_file),
        ],
    )


# A workload's own skills are built in and carry no success statistic.
SKILL = _skill_table(Provenance.BUILT_IN, success_stat_in_file=False)
LEARNED_SKILL = _skill_table(Provenance.LEARNED, success_stat_in_file=True)

ACTION = Table(
    Action,
    [
        Field("step", Int()),
        Field("kind", OneOf(ActionKind), default=ActionKind.OBSERVATION),
        Field("summary", TEXT, default=""),
    ],
)

TASK = Table(
    TaskSpec,
    [
        Field("description", NONEMPTY),
        Field("constraints", LINES, default=()),
        Field("expected_outcome", TEXT, default=""),
        Field("referenced_files", NAMES, default=()),
        Field("referenced_symbols", NAMES, default=()),
    ],
)

# Workload files carry no embeddings: a file item parses to the keyword
# arguments of ``make_item``, which derives the embedding.
ITEM = Table(
    MemoryItem,
    [
        Field("id", NONEMPTY),
        Field("tier", OneOf(MemoryTier)),
        Field("content", TEXT),
        Field("referenced_files", NAMES, default=()),
        Field("referenced_symbols", NAMES, default=()),
        Field("created_at_step", COUNT, default=0),
        Field("embedding", ListOf(Num()), file=False),
    ],
    file_build=lambda id, **fields: dict(item_id=id, **fields),
)

_METRIC_FIELDS = (
    Field("I_f", NONNEG, "interdependency"),
    Field("C_c", NONNEG, "cyclomatic"),
    Field("F_c", NONNEG, "failure_cascade"),
    Field("O_c", UNIT, "context_occupancy"),
    Field("U_c", NONNEG, "uncertainty"),
)
METRICS = Table(ComplexityMetrics, _METRIC_FIELDS)
# On the wire a spawn package's score travels with its metrics.
SPAWN_METRICS = Table(dict, _METRIC_FIELDS + (Field("S_spawn", UNIT, "score"),))


def _check_tier(tier: MemoryTier, items) -> None:
    for item in items:
        if item.tier is not tier:
            raise ProtocolError(f"item {item.id} has tier {item.tier.value}")


# On the wire a spawn package's memory is one list of items per tier.
MEMORY = Table(
    lambda **groups: {MemoryTier(tier): items for tier, items in groups.items()},
    [Field(tier.value, ListOf(ITEM), get=itemgetter(tier)) for tier in TIER_ORDER],
    checks=[
        (tier.value, lambda memory, tier=tier: _check_tier(tier, memory[tier])) for tier in TIER_ORDER
    ],
)

CONTEXT = Table(
    ExecutionContext,
    [
        Field("repo_path", TEXT),
        Field("current_file", TEXT),
        Field("line_number", COUNT),
        Field("pending_changes", DIFFS),
    ],
)


def _spawn_package(spawn_metrics: dict, **fields) -> SpawnPackage:
    score = spawn_metrics.pop("score")
    return SpawnPackage(metrics=ComplexityMetrics(**spawn_metrics), score=score, **fields)


SPAWN = Table(
    _spawn_package,
    [
        Field("spawn_id", NONEMPTY),
        Field("parent_id", NONEMPTY),
        Field("timestamp", NONNEG),
        Field("memory", MEMORY),
        Field("skills", ListOf(SKILL)),
        Field("context", CONTEXT),
        Field("task", TASK),
        Field(
            "spawn_metrics",
            SPAWN_METRICS,
            get=lambda pkg: SimpleNamespace(**vars(pkg.metrics), score=pkg.score),
        ),
    ],
)

# Fields a child's resume package shares with a scripted outcome; the
# defaults are the outcome's.
_STATUS = Field("status", OneOf(ChildStatus), default=ChildStatus.SUCCESS)
_EXECUTION_TIME = Field("execution_time", NONNEG, default=10.0)
_OUTPUT = Field("output", TEXT, default="done")
_TRACE = Field("trace", ListOf(ACTION), default=())
_SKILLS_LEARNED = Field("skills_learned", ListOf(LEARNED_SKILL), default=())
_TEST_PASS_RATE = Field("test_pass_rate", UNIT, default=1.0)
_TOKENS_USED = Field("tokens_used", COUNT, default=1000)
_API_CALLS = Field("api_calls", COUNT, default=5)


RESULT = Table(
    ResultPayload,
    [_OUTPUT, Field("code_diff", DIFFS), Field("files_modified", NAMES)],
    checks=[("files_modified", check_files_modified)],
)
RESUME = Table(
    ResumePackage,
    [
        Field("spawn_id", NONEMPTY),
        _STATUS,
        _EXECUTION_TIME,
        Field("result", RESULT),
        _TRACE,
        _SKILLS_LEARNED,
        Field("metrics", Table(ChildMetrics, [_TOKENS_USED, _API_CALLS, _TEST_PASS_RATE])),
    ],
    checks=[("trace", lambda pkg: check_trace_order(pkg.trace))],
)

NESTED_SPAWN = Table(
    NestedSpawn,
    [
        Field("outcome", NONEMPTY, "outcome_key"),
        Field("specialization", OneOf(Specialization), default=Specialization.RESEARCH_ANALYSIS),
    ],
)
# A scripted child's diffs must combine per file, as the parent's merge
# combines them.
OUTCOME = Table(
    ScriptedOutcome,
    [
        _STATUS,
        _EXECUTION_TIME,
        _OUTPUT,
        Field("diffs", DIFFS, default=()),
        _SKILLS_LEARNED,
        _TEST_PASS_RATE,
        _TOKENS_USED,
        _API_CALLS,
        _TRACE,
        Field("spawns", ListOf(NESTED_SPAWN), default=()),
    ],
    checks=[("diffs", lambda outcome: combine_diffs(outcome.diffs))],
)

CONFLICTS = Table(
    dict,
    [
        Field("count", COUNT),
        Field("line_disjoint_fraction", UNIT),
        Field("semantic_success_p", UNIT),
    ],
)



def _check_memory_ids(fields: dict) -> None:
    for item in fields["memory"]:
        if ":" in item["item_id"]:
            raise ValueError(f"id {item['item_id']!r} contains ':', kept for the items a run adds")


# A workload file parses to the keyword arguments of its fields; the
# loader derives embeddings and builds the spec.
WORKLOAD = Table(
    dict,
    [
        Field("version", Int(SCHEMA_VERSION, SCHEMA_VERSION), get=lambda spec: SCHEMA_VERSION),
        Field("name", TEXT),
        Field("embedding_dim", Int(lo=1, hi=MAX_EMBEDDING_DIM)),
        Field("task", TASK),
        Field("memory", ListOf(ITEM, unique="id"), default=()),
        Field("skills", ListOf(SKILL, unique="id"), default=()),
        Field("base_files", MapOf(LINES), default={}),
        Field("trajectory", ListOf(METRICS, nonempty=True)),
        Field("child_outcomes", MapOf(OUTCOME), default={}),
        Field("conflicts", Nullable(CONFLICTS), default=None),
    ],
    checks=[("memory", _check_memory_ids)],
)

def package_bytes(package: SpawnPackage | ResumePackage) -> bytes:
    """The package's compact UTF-8 wire text, written into one buffer.
    A non-finite float raises ``ValueError`` and a lone surrogate
    ``UnicodeEncodeError``, as ``json.dumps(...).encode()`` would."""
    if isinstance(package, SpawnPackage):
        table = SPAWN
    elif isinstance(package, ResumePackage):
        table = RESUME
    else:
        raise ProtocolError(f"cannot encode {type(package).__name__}")
    out = bytearray()
    table.write(package, out, _FloatTexts())
    return bytes(out)


def package_from_data(data) -> SpawnPackage | ResumePackage:
    """Build a package from decoded wire JSON; the first error raises
    ``PackageDecodeError``. A spawn package is told from a resume package
    by its ``parent_id`` key."""
    if not isinstance(data, dict):
        raise PackageDecodeError("bad_type", "$", "top level must be an object")
    if "parent_id" in data:
        return parse(SPAWN, data, WIRE, "spawn_package")
    if "status" in data:
        return parse(RESUME, data, WIRE, "resume_package")
    raise PackageDecodeError("bad_value", "$", "neither a spawn package nor a resume package")
