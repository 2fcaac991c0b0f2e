"""The JSON shape of every agentfork type, and the one reader of JSON files.

Two formats share one field table per type:

- the **wire** format of spawn/resume packages (and checkpoints): every
  key is required, and parsing stops at the first error;
- the **file** format of workload, run config and generation params
  files: a key with a default may be left out, a field marked
  ``file=False`` is never written and always takes its default, and
  parsing collects every error.

In both, unknown keys are errors, integers must be JSON integers,
numbers must be finite and strings must be encodable as UTF-8. ``encode``
builds the JSON object of a value from its table; ``parse`` checks and
builds in one pass and returns the value or a list of ``(kind, path,
message)`` errors. A ``ValueError`` raised by a constructor becomes an
error at the path of the object it was building, and a ``FieldError``
one at the path of the key it names.

``read_json`` decodes a run config or generation params file whole,
and ``parse_file`` parses its value in the file format; both raise
``InputError``, whose lines name the file and the field path at fault.
A workload file is read by ``harness.workload.read_workload``, which
decodes the memory list of a file larger than one chunk an element at
a time and parses each element through a ``ListStream``.
``flat_table`` derives the tables of ``SimulatorConfig`` and
``GenerateParams`` from their dataclasses.

``package_parts`` writes a package's compact wire text straight from
the same tables, byte for byte what ``json.dumps`` (``ensure_ascii=False``,
``allow_nan=False``, no spaces) writes for its ``encode`` object, without
building that object: one ``write`` per type appends a value's UTF-8
parts to a list, which ``encode_package`` joins and a checkpoint
writes a slice at a time. Each distinct float is formatted once per
call, up to ``FLOAT_MEMO`` of them, and each memory item once per item:
its bytes are kept on the item and reused by every later package.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from .coherence import Diff, Hunk, combine_diffs
from .memory import MAX_INT, TIER_ORDER, MemoryItem, MemoryTier
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
# Each memory item holds a dense embedding of this many floats.
MAX_EMBEDDING_DIM = 4096
# A run pushes each conflict scenario through the full merge protocol, so
# its time grows with the count: about 20 s at this bound on a 2-vCPU Xeon
# under Python 3.11. A count near 2**53 would never finish.
MAX_CONFLICTS = 10**6
# Distinct floats whose wire text one ``package_parts`` call keeps. Past
# this many the rest are formatted directly: a memo of every distinct
# float of a large package costs more than it saves.
FLOAT_MEMO = 4096

Error = tuple[str, str, str]
REQUIRED = object()
_BAD = object()


class InputError(ValueError):
    """An input that cannot be read or does not parse: one ``path:
    message`` line per error."""

    def __init__(self, *errors: str):
        self.errors = errors
        super().__init__("; ".join(errors))


class FieldError(ValueError):
    """A value rule that one key of a table breaks: ``Table.parse``
    reports it at that key, not at the object."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


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
    """The wire text of each float one ``package_parts`` call has
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
    it, ``encode`` builds its JSON object, and ``write(value, out,
    floats)``, the one wire writer per type, appends its compact wire
    text to ``out`` as UTF-8 parts. ``floats`` is the float memo of one
    ``package_parts`` call."""

    def encode(self, value, fmt: str):
        return value


class Str(Type):
    def __init__(self, nonempty: bool = False):
        self.nonempty = nonempty

    def write(self, value, out, floats):
        out.append(encode_basestring(value).encode())

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, str):
            return p.fail("bad_type", parent, key, "expected string")
        if self.nonempty and not value:
            return p.fail("bad_value", parent, key, "must be nonempty")
        # JSON can spell a lone surrogate ("\ud800"), which no UTF-8 file
        # or report can hold. ``isascii`` is O(1): most strings skip the encode.
        if not value.isascii():
            try:
                value.encode()
            except UnicodeEncodeError:
                return p.fail("bad_value", parent, key, "not encodable as UTF-8 (a lone surrogate)")
        return value


class Bool(Type):
    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, bool):
            return p.fail("bad_type", parent, key, "expected boolean")
        return value


def _range_message(value, lo, hi) -> str:
    """Names only the bounds that exist."""
    if lo is None:
        return f"{value} must be <= {hi}"
    if hi is None:
        return f"{value} must be >= {lo}"
    return f"{value} outside [{lo}, {hi}]"


class Int(Type):
    def __init__(self, lo: int | None = None, hi: int = MAX_INT):
        self.lo, self.hi = lo, hi

    def parse(self, value, parent, key, p: _Pass):
        if isinstance(value, bool) or not isinstance(value, int):
            return p.fail("bad_type", parent, key, "expected integer")
        if self.lo is not None and value < self.lo or value > self.hi:
            return p.fail("out_of_range", parent, key, _range_message(value, self.lo, self.hi))
        return value

    def write(self, value, out, floats):
        out.append(int.__repr__(value).encode())


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
            return p.fail("out_of_range", parent, key, _range_message(value, self.lo, self.hi))
        return number

    def write(self, value, out, floats):
        out.append(_finite(float.__repr__(value)).encode())


class OneOf(Type):
    """A string naming a member of an ``Enum``."""

    def __init__(self, enum: type[Enum]):
        self.enum = enum
        self.members = {m.value: m for m in enum}
        self.texts = {m: encode_basestring(m.value).encode() for m in enum}

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, str):
            return p.fail("bad_type", parent, key, "expected string")
        if value not in self.members:
            return p.fail("bad_value", parent, key, f"unknown {self.enum.__name__} {value!r}")
        return self.members[value]

    def encode(self, value, fmt):
        return value.value

    def write(self, value, out, floats):
        out.append(self.texts[value])


class Nullable(Type):
    def __init__(self, inner: Type):
        self.inner = inner

    def parse(self, value, parent, key, p: _Pass):
        return None if value is None else self.inner.parse(value, parent, key, p)

    def encode(self, value, fmt):
        return None if value is None else self.inner.encode(value, fmt)

    def write(self, value, out, floats):
        if value is None:
            out.append(b"null")
        else:
            self.inner.write(value, out, floats)


class ListOf(Type):
    """A list, held as a tuple. ``unique`` names a key whose string
    values must not repeat across the list's objects; ``sort`` writes
    the list sorted (for values held as sets)."""

    def __init__(
        self, item: Type, unique: str | None = None, nonempty: bool = False, sort: bool = False
    ):
        self.item, self.unique, self.nonempty, self.sort = item, unique, nonempty, sort
        self.plain = type(item).encode is Type.encode
        self.numbers = type(item) is Num
        self.strings = type(item) is Str and not item.nonempty

    def parse(self, value, parent, key, p: _Pass):
        if not isinstance(value, list):
            if isinstance(value, ListStream):
                return value.splice(parent, key, p)
            return p.fail("bad_type", parent, key, "expected list")
        if self.nonempty and not value:
            return p.fail("bad_value", parent, key, "must be nonempty")
        if self.strings and all(isinstance(v, str) and v.isascii() for v in value):
            return tuple(value)
        elements = ListStream(self, (parent, key), p)
        out = list(map(elements.parse, value))
        return tuple(out) if elements.ok else _BAD

    def encode(self, value, fmt):
        if self.sort:
            return sorted(value)
        return list(value) if self.plain else [self.item.encode(v, fmt) for v in value]

    def write(self, value, out, floats):
        if self.numbers:
            # An embedding: one part, its floats formatted through the memo.
            out.append(b"[" + floats.join(value).encode() + b"]")
            return
        write = self.item.write
        for i, element in enumerate(sorted(value) if self.sort else value):
            out.append(b"," if i else b"[")
            write(element, out, floats)
        out.append(b"]" if value else b"[]")


class ListStream:
    """The elements of one ``ListOf``, parsed one at a time in order.

    ``parse(element)`` checks the list's ``unique`` key and parses the
    element, returning its value, or None when it breaks the schema.
    ``ListOf.parse`` runs one over a decoded list. A reader that decodes
    a file's list element by element takes one from ``of``, which keeps
    the errors, and sets ``value`` to what the list stands for; handed
    to ``parse`` in the list's place, the stream adds its errors where
    the list's would be and parses to ``value``.
    """

    def __init__(self, list_type: ListOf, here, p: _Pass):
        self.type, self.here, self.p = list_type, here, p
        self.seen: set[str] = set()
        self.ok, self.count, self.value = True, 0, None

    @classmethod
    def of(cls, table: Table, key: str) -> ListStream:
        """A stream of the list at ``key`` of a file-format ``table``
        parsed as a whole file (at the root)."""
        (list_type,) = [type_ for name, _, type_, _ in table.fields[FILE] if name == key]
        return cls(list_type, ((None, None), key), _Pass(FILE))

    def parse(self, element):
        i, unique = self.count, self.type.unique
        self.count += 1
        if unique and isinstance(element, dict):
            name = element.get(unique)
            if isinstance(name, str):
                if name in self.seen:
                    self.p.fail("bad_value", (self.here, i), unique, f"duplicate {name!r}")
                    self.ok = False
                self.seen.add(name)
        parsed = self.type.item.parse(element, self.here, i, self.p)
        if parsed is _BAD:
            self.ok = False
            return None
        return parsed

    def splice(self, parent, key, p: _Pass):
        if self.type.nonempty and not self.count:
            return p.fail("bad_value", parent, key, "must be nonempty")
        p.errors.extend(self.p.errors)
        return self.value if self.ok else _BAD


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

    def write(self, value, out, floats):
        write = self.value_type.write
        for i, (k, v) in enumerate(dict(value).items()):
            out.append((("," if i else "{") + encode_basestring(k) + ":").encode())
            write(v, out, floats)
        out.append(b"}" if value else b"{}")


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
            prefix = (("," if self.writers else "{") + encode_basestring(f.key) + ":").encode()
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
        except FieldError as exc:
            return p.fail("bad_value", here, exc.key, str(exc))
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

    def write(self, value, out, floats):
        for prefix, get, type_ in self.writers:
            out.append(prefix)
            type_.write(get(value), out, floats)
        out.append(b"}")


class _ItemTable(Table):
    """The table of ``MemoryItem``, whose wire bytes are kept on the
    item (``MemoryItem._wire``) and reused by every later package.

    The bytes are stored only after the whole item has encoded, so an
    item that raises (a lone surrogate, a non-finite float) raises again
    on every attempt. Items are frozen, so the bytes never go stale.
    """

    def write(self, item, out, floats):
        data = item._wire
        if data is None:
            parts: list[bytes] = []
            super().write(item, parts, floats)
            data = b"".join(parts)
            object.__setattr__(item, "_wire", data)
        out.append(data)


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


def read_json(path: str | Path):
    """The JSON value of the file at ``path``, decoded whole: the reader
    of run config and generation params files, and of each workload file
    that ``read_workload`` does not stream. A file that is missing, cannot
    be read, is not UTF-8 or is not JSON raises ``InputError`` naming
    the path."""
    try:
        return json.loads(Path(path).read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise InputError(f"{path}: no such file") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 (byte {exc.start})") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def parse_file(table: Table, data, source: str | Path | None = None):
    """Build the value ``data`` describes in the file format, or raise
    ``InputError`` with one ``[source: ]path: message`` line per error."""
    value = parse(table, data, FILE)
    if isinstance(value, list):
        raise InputError(*error_lines(value, source))
    return value


def error_lines(errors: list[Error], source: str | Path | None = None) -> list[str]:
    prefix = "" if source is None else f"{source}: "
    return [f"{prefix}{path}: {message}" for _, path, message in errors]


NONEMPTY = Str(nonempty=True)
TEXT = Str()
LINES = ListOf(TEXT)
NAMES = ListOf(TEXT, sort=True)
COUNT = Int(lo=0)
NONNEG = Num(lo=0.0)
UNIT = Num(0.0, 1.0)
EMBEDDING_DIM = Int(lo=1, hi=MAX_EMBEDDING_DIM)
# The JSON type of each annotation a ``flat_table`` field may have. The
# annotations are strings: their modules import ``annotations``.
_FLAT_TYPES = {
    "bool": Bool(),
    "int": Int(),
    "float": Num(),
    "float | None": Nullable(Num()),
    "str": TEXT,
    "str | None": Nullable(TEXT),
    "tuple[float, float, float] | None": Nullable(ListOf(Num())),
}


def flat_table(cls) -> Table:
    """The table of a dataclass of plain values: one key per field, of
    the JSON type of its annotation and defaulting to its default."""
    return Table(cls, [Field(f.name, _FLAT_TYPES[f.type], default=f.default) for f in dataclasses.fields(cls)])

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
# arguments of ``make_item``, which derives the embedding. The loader
# embeds each distinct content once, so items with equal content share
# one embedding tuple.
ITEM = _ItemTable(
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
        Field("count", Int(lo=0, hi=MAX_CONFLICTS)),
        Field("line_disjoint_fraction", UNIT),
        Field("semantic_success_p", UNIT),
    ],
)


def _id_and_step(item) -> tuple[str, int]:
    # A decoded file's items parse to keyword dicts; a load that streams
    # the memory list builds each item as it parses it.
    if isinstance(item, MemoryItem):
        return item.id, item.created_at_step
    return item["item_id"], item["created_at_step"]


def _check_memory(fields: dict) -> None:
    last = 0
    for item_id, step in map(_id_and_step, fields["memory"]):
        if ":" in item_id:
            raise ValueError(f"id {item_id!r} contains ':', kept for the items a run adds")
        last = max(last, step)
    # A run's memory step starts at the newest item's and advances once
    # per trajectory step; the items it adds carry it.
    if last + len(fields["trajectory"]) - 1 > MAX_INT:
        raise ValueError(f"newest created_at_step {last} plus the trajectory's steps passes 2**53")


# A workload file parses to the keyword arguments of its fields; the
# loader derives embeddings and builds the spec.
WORKLOAD = Table(
    dict,
    [
        Field("version", Int(SCHEMA_VERSION, SCHEMA_VERSION), get=lambda spec: SCHEMA_VERSION),
        Field("name", TEXT),
        Field("embedding_dim", EMBEDDING_DIM),
        Field("task", TASK),
        Field("memory", ListOf(ITEM, unique="id"), default=()),
        Field("skills", ListOf(SKILL, unique="id"), default=()),
        Field("base_files", MapOf(LINES), default={}),
        Field("trajectory", ListOf(METRICS, nonempty=True)),
        Field("child_outcomes", MapOf(OUTCOME), default={}),
        Field("conflicts", Nullable(CONFLICTS), default=None),
    ],
    checks=[("memory", _check_memory)],
)

def package_parts(package: SpawnPackage | ResumePackage) -> list[bytes]:
    """The package's compact UTF-8 wire text as a list of parts, in
    order; a memory item's part is its kept ``_wire`` bytes, not a copy.
    A non-finite float raises ``ValueError`` and a lone surrogate
    ``UnicodeEncodeError``, as ``json.dumps(...).encode()`` would."""
    if isinstance(package, SpawnPackage):
        table = SPAWN
    elif isinstance(package, ResumePackage):
        table = RESUME
    else:
        raise ProtocolError(f"cannot encode {type(package).__name__}")
    parts: list[bytes] = []
    table.write(package, parts, _FloatTexts())
    return parts


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
