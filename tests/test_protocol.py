from __future__ import annotations

import dataclasses
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentfork import protocol, schema
from agentfork.coherence import Diff, DiffError, Hunk
from agentfork.memory import MemoryError, MemoryItem, MemorySlice, MemoryStore, MemoryTier, count_tokens, make_item
from agentfork.policy import ComplexityMetrics, PolicyError
from agentfork.protocol import (
    Action,
    ActionKind,
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    PackageDecodeError,
    ParentState,
    ProtocolError,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    build_spawn_package,
    decode_package,
    encode_package,
    replay_resume,
    sequential_ids,
    summarize_trace,
    validate_resume,
    write_checkpoint,
)
from agentfork.skills import Provenance, Skill, SkillError, SkillLibrary

from conftest import DIM, random_resume_package, random_spawn_package, read_checkpoint, tier_items

METRICS = ComplexityMetrics(1, 2, 3, 0.5, 4)

SPAWN_KEYS = ("spawn_id", "parent_id", "timestamp", "memory", "skills", "context", "task", "spawn_metrics")
MEMORY_KEYS = ("episodic", "semantic", "working")
CONTEXT_KEYS = ("repo_path", "current_file", "line_number", "pending_changes")
TASK_KEYS = ("description", "constraints", "expected_outcome", "referenced_files", "referenced_symbols")
SPAWN_METRIC_KEYS = ("I_f", "C_c", "F_c", "O_c", "U_c", "S_spawn")
RESUME_KEYS = ("spawn_id", "status", "execution_time", "result", "trace", "skills_learned", "metrics")
RESULT_KEYS = ("output", "code_diff", "files_modified")
ACTION_KEYS = ("step", "kind", "summary")
CHILD_METRIC_KEYS = ("tokens_used", "api_calls", "test_pass_rate")


def _package(embedder, spawn_id="spawn-0001", slice_items=()):
    memory_slice = MemorySlice(items=tuple(slice_items), tokens=count_tokens(slice_items))
    return build_spawn_package(
        parent_id="parent",
        task=TaskSpec(description="fix the parser"),
        memory_slice=memory_slice,
        skills=(),
        context=ExecutionContext(repo_path="repo"),
        metrics=METRICS,
        score=0.75,
        timestamp=10.0,
        id_source=lambda: spawn_id,
    )


def _resume(spawn_id="spawn-0001", status=ChildStatus.SUCCESS, **kwargs):
    defaults = dict(
        execution_time=5.0,
        result=ResultPayload(output="done"),
        trace=(
            Action(1, ActionKind.DECISION, "plan"),
            Action(2, ActionKind.EDIT, "edit"),
            Action(3, ActionKind.OBSERVATION, "done"),
        ),
        skills_learned=(),
        metrics=ChildMetrics(100, 3, 0.9),
    )
    defaults.update(kwargs)
    return ResumePackage(spawn_id=spawn_id, status=status, **defaults)


def test_build_spawn_package_populates_fields(embedder):
    item = make_item("m1", MemoryTier.WORKING, "ctx", embedder)
    pkg = _package(embedder, slice_items=(item,))
    assert pkg.spawn_id == "spawn-0001"
    assert pkg.timestamp == 10.0
    assert pkg.memory[MemoryTier.WORKING] == (item,)
    assert pkg.memory[MemoryTier.EPISODIC] == ()
    assert pkg.score == 0.75


def test_build_spawn_package_empty_slice_is_legal(embedder):
    pkg = _package(embedder)
    assert [item for items in pkg.memory.values() for item in items] == []
    assert pkg.skills == ()


def test_spawn_ids_unique_within_run(embedder):
    ids = sequential_ids()
    first = build_spawn_package(
        "p", TaskSpec(description="t"), MemorySlice(items=(), tokens=0), (),
        ExecutionContext(repo_path="r"), METRICS, 0.5, timestamp=0.0, id_source=lambda: next(ids),
    )
    second = build_spawn_package(
        "p", TaskSpec(description="t"), MemorySlice(items=(), tokens=0), (),
        ExecutionContext(repo_path="r"), METRICS, 0.5, timestamp=0.0, id_source=lambda: next(ids),
    )
    assert first.spawn_id != second.spawn_id


def test_build_rejects_out_of_range_score(embedder):
    with pytest.raises(ProtocolError):
        build_spawn_package(
            "p", TaskSpec(description="t"), MemorySlice(items=(), tokens=0), (),
            ExecutionContext(repo_path="r"), METRICS, 1.5, timestamp=0.0, id_source=lambda: "spawn-0001",
        )


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_child_metrics_reject_a_non_finite_pass_rate(rate):
    with pytest.raises(ProtocolError, match="test_pass_rate must be finite"):
        ChildMetrics(tokens_used=10, api_calls=1, test_pass_rate=rate)


@pytest.mark.parametrize("line_number", [3.0, True, "3"])
def test_context_rejects_a_non_integer_line_number(line_number):
    # The wire decoder rejects these too, so no package could carry them.
    with pytest.raises(ProtocolError, match="line_number must be an integer"):
        ExecutionContext(repo_path="r", line_number=line_number)


def test_encoded_spawn_package_key_sets(embedder):
    item = make_item("m1", MemoryTier.EPISODIC, "words", embedder)
    pkg = _package(embedder, slice_items=(item,))
    obj = json.loads(encode_package(pkg))
    assert tuple(obj) == SPAWN_KEYS
    assert tuple(obj["memory"]) == MEMORY_KEYS
    assert tuple(obj["context"]) == CONTEXT_KEYS
    assert tuple(obj["task"]) == TASK_KEYS
    assert tuple(obj["spawn_metrics"]) == SPAWN_METRIC_KEYS


def test_encoded_resume_package_key_sets():
    obj = json.loads(encode_package(_resume()))
    assert tuple(obj) == RESUME_KEYS
    assert tuple(obj["result"]) == RESULT_KEYS
    assert tuple(obj["metrics"]) == CHILD_METRIC_KEYS
    assert all(tuple(a) == ACTION_KEYS for a in obj["trace"])


def test_encoding_is_deterministic(embedder):
    pkg = random_spawn_package(random.Random(42), embedder)
    assert encode_package(pkg) == encode_package(pkg)


def test_round_trip_and_fixpoint_on_randomized_packages(embedder):
    rng = random.Random(7)
    for _ in range(100):
        spawn = random_spawn_package(rng, embedder)
        data = encode_package(spawn)
        again = decode_package(data)
        assert again == spawn
        assert encode_package(again) == data
        resume = random_resume_package(rng)
        data = encode_package(resume)
        again = decode_package(data)
        assert again == resume
        assert encode_package(again) == data


def _reference_bytes(package) -> bytes:
    table = schema.SPAWN if isinstance(package, SpawnPackage) else schema.RESUME
    data = schema.encode(table, package, schema.WIRE)
    return json.dumps(data, ensure_ascii=False, separators=(",", ":"), allow_nan=False).encode()


# Floats whose shortest repr takes each form: subnormal, huge, exponent
# at the repr switch points, and a repeating fraction.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e308, 1e16, 1e-7, 1 / 3)
_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
_UNIT = st.one_of(st.sampled_from((0.0, -0.0, 1e-7, 1 / 3, 1.0)), st.floats(0.0, 1.0))
_NONNEG = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, 1e16, 1e308)), st.floats(0.0, 1e308))
# JSON escapes, the characters ensure_ascii=False passes through, and
# non-BMP characters; lone surrogates cannot be encoded at all.
_ESCAPED = '"\\\x7f\u2028\u2029\U0001f600\U00010000' + "".join(map(chr, range(32)))
_TEXT = st.text(
    st.one_of(st.sampled_from(_ESCAPED), st.characters(blacklist_categories=("Cs",))), max_size=8
)
_NAME = _TEXT.filter(bool)
_LINES = st.lists(_TEXT, max_size=3).map(tuple)


def _many_floats(seed: int) -> tuple[float, ...]:
    """More distinct floats than the wire writer's memo holds, with zeros
    of both signs before and after the memo fills."""
    rng = random.Random(seed)
    values = [rng.uniform(-1e6, 1e6) for _ in range(schema.FLOAT_MEMO + 200)]
    for at in (3, schema.FLOAT_MEMO - 1, schema.FLOAT_MEMO + 100):
        values[at : at + 2] = (0.0, -0.0) if at % 2 else (-0.0, 0.0)
    return tuple(values)


@st.composite
def _items(draw):
    count = draw(st.integers(0, 3))
    embeddings = [tuple(draw(st.lists(_FLOATS, max_size=6))) for _ in range(count)]
    if draw(st.booleans()):
        embeddings.append(_many_floats(draw(st.integers(0, 2**16))))
    return tuple(
        MemoryItem(
            id=draw(_NAME),
            tier=draw(st.sampled_from(list(MemoryTier))),
            content=draw(_TEXT),
            referenced_files=draw(st.frozensets(_TEXT, max_size=3)),
            referenced_symbols=draw(st.frozensets(_TEXT, max_size=2)),
            created_at_step=draw(st.integers(0, 2**53)),
            embedding=embedding,
        )
        for embedding in embeddings
    )


_PLACEHOLDER = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True)


@st.composite
def _skills(draw, provenance):
    names = draw(st.lists(_PLACEHOLDER, max_size=3, unique=True))
    stat = draw(st.none() | _UNIT) if provenance is Provenance.LEARNED else None
    return Skill(
        id=draw(_NAME),
        template=draw(_TEXT) + "".join(f"{{{n}}}" for n in names),
        params={n: draw(_TEXT) for n in names},
        provenance=provenance,
        success_stat=stat,
    )


_DIFFS = st.lists(
    st.builds(
        lambda file, start, old, new: Diff(file, (Hunk(start, old, new),)),
        _NAME,
        st.integers(1, 2**53),
        _LINES,
        _LINES,
    ),
    max_size=2,
).map(tuple)


@st.composite
def _spawn_packages(draw):
    items = draw(_items())
    return SpawnPackage(
        spawn_id=draw(_NAME),
        parent_id=draw(_NAME),
        timestamp=draw(_NONNEG),
        memory={tier: tuple(i for i in items if i.tier is tier) for tier in MemoryTier},
        skills=tuple(draw(st.lists(_skills(Provenance.BUILT_IN), max_size=2))),
        context=ExecutionContext(
            repo_path=draw(_TEXT),
            current_file=draw(_TEXT),
            line_number=draw(st.integers(0, 2**53)),
            pending_changes=draw(_DIFFS),
        ),
        task=TaskSpec(
            description=draw(_NAME),
            constraints=draw(_LINES),
            expected_outcome=draw(_TEXT),
            referenced_files=draw(st.frozensets(_TEXT, max_size=2)),
            referenced_symbols=draw(st.frozensets(_TEXT, max_size=2)),
        ),
        metrics=ComplexityMetrics(
            draw(_NONNEG), draw(_NONNEG), draw(_NONNEG), draw(_UNIT), draw(_NONNEG)
        ),
        score=draw(_UNIT),
    )


@st.composite
def _resume_packages(draw):
    diffs = draw(_DIFFS)
    return ResumePackage(
        spawn_id=draw(_NAME),
        status=draw(st.sampled_from(list(ChildStatus))),
        execution_time=draw(_NONNEG),
        result=ResultPayload(
            output=draw(_TEXT), code_diff=diffs, files_modified=frozenset(d.file for d in diffs)
        ),
        trace=tuple(
            Action(step, draw(st.sampled_from(list(ActionKind))), draw(_TEXT))
            for step in sorted(draw(st.sets(st.integers(-(2**53), 2**53), max_size=3)))
        ),
        skills_learned=tuple(draw(st.lists(_skills(Provenance.LEARNED), max_size=2))),
        metrics=ChildMetrics(draw(st.integers(0, 2**53)), draw(st.integers(0, 2**53)), draw(_UNIT)),
    )


def _zero_pair_package():
    """-0.0 and 0.0 in one embedding in both orders, in either order of items."""
    items = [
        MemoryItem(f"z{n}", MemoryTier.SEMANTIC, "zeros", embedding=embedding)
        for n, embedding in enumerate(((0.0, -0.0, 0.5), (-0.0, 0.0, 0.5), (0.0, 0.5), (-0.0,)))
    ]
    return dataclasses.replace(
        _package(None), memory={MemoryTier.SEMANTIC: tuple(items + items[::-1])}
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(_spawn_packages(), _resume_packages()))
@example(_zero_pair_package())
def test_wire_writer_matches_json_dumps(package):
    assert encode_package(package) == _reference_bytes(package)


def _spawn_with(items, spawn_id="spawn-0001"):
    """A spawn package carrying ``items``, each filed under its own tier."""
    return dataclasses.replace(
        _package(None, spawn_id),
        memory={tier: tuple(i for i in items if i.tier is tier) for tier in MemoryTier},
    )


def _fresh_items(count=4):
    return [
        MemoryItem(
            f"i{n}", list(MemoryTier)[n % 3], f"item \u00e9 {n} \"quoted\"\n",
            referenced_files={f"src/f{n}.py", "src/shared.py"},
            created_at_step=n, embedding=(0.5, -1.25 * n, 1 / 3),
        )
        for n in range(count)
    ]


def test_item_text_is_reused_when_a_package_is_encoded_twice(monkeypatch):
    package = _spawn_with(_fresh_items())
    first = encode_package(package)
    assert first == _reference_bytes(package)

    def format_again(item):
        raise AssertionError(f"item {item.id} formatted twice")

    monkeypatch.setattr(schema.ITEM, "writers", [(b"{", format_again, schema.TEXT)])
    assert encode_package(package) == first


def test_item_text_is_reused_by_a_later_package_that_shares_items():
    items = _fresh_items(6)
    earlier = _spawn_with(items[:4], "spawn-0001")
    assert encode_package(earlier) == _reference_bytes(earlier)
    later = _spawn_with(items[2:] + [items[0]], "spawn-0002")
    assert encode_package(later) == _reference_bytes(later)
    assert encode_package(earlier) == _reference_bytes(earlier)


def test_equal_items_with_zeros_of_either_sign_each_get_their_own_text():
    positive = MemoryItem("z", MemoryTier.SEMANTIC, "zeros", embedding=(0.0, 0.5))
    negative = MemoryItem("z", MemoryTier.SEMANTIC, "zeros", embedding=(-0.0, 0.5))
    assert positive == negative and hash(positive) == hash(negative)
    for first, second in ((positive, negative), (negative, positive)):
        for item in (first, second):
            package = _spawn_with([item])
            assert encode_package(package) == _reference_bytes(package)
    assert b"[-0.0,0.5]" in encode_package(_spawn_with([negative]))
    assert b"[0.0,0.5]" in encode_package(_spawn_with([positive]))


def test_an_item_that_cannot_be_encoded_raises_on_every_attempt():
    item = MemoryItem("s", MemoryTier.EPISODIC, "lone \ud800 surrogate", embedding=(0.25,))
    package = _spawn_with([item])
    for _ in range(2):
        with pytest.raises(UnicodeEncodeError):
            encode_package(package)
        assert item._wire is None
    with pytest.raises(UnicodeEncodeError):
        _reference_bytes(package)


def test_an_encoded_item_keeps_its_value_semantics():
    item, twin = _fresh_items(2)[1], _fresh_items(2)[1]
    encode_package(_spawn_with([item]))
    assert item._wire is not None and twin._wire is None
    assert item == twin and hash(item) == hash(twin) and repr(item) == repr(twin)
    assert "_wire" not in {f.name for f in dataclasses.fields(MemoryItem)}
    changed = dataclasses.replace(item, content="changed")
    assert changed._wire is None
    package = _spawn_with([changed])
    assert encode_package(package) == _reference_bytes(package)
    assert schema.encode(schema.ITEM, item, schema.WIRE) == schema.encode(schema.ITEM, twin, schema.WIRE)


def test_items_sharing_one_embedding_tuple_keep_their_own_text():
    shared = (0.5, -0.0, 1 / 3)
    first = MemoryItem("a", MemoryTier.EPISODIC, "first", embedding=shared)
    second = MemoryItem("b", MemoryTier.WORKING, "second", created_at_step=3, embedding=shared)
    assert first.embedding is shared and second.embedding is shared
    package = _spawn_with([first])
    assert encode_package(package) == _reference_bytes(package)
    assert first._wire is not None and second._wire is None
    for items in ([second], [first, second]):
        package = _spawn_with(items)
        assert encode_package(package) == _reference_bytes(package)
    assert second._wire is not None and second._wire != first._wire


_POOL_EMBEDDINGS = st.lists(
    st.sampled_from((0.0, -0.0, 0.5, -0.5, 1e-7, 1 / 3, 5e-324)), min_size=1, max_size=3
).map(tuple)


@st.composite
def _packages_from_one_pool(draw):
    """Packages drawing their items from one shared pool, which holds
    items equal up to the sign of a zero."""
    pool = []
    for n in range(draw(st.integers(1, 6))):
        embedding = draw(_POOL_EMBEDDINGS)
        fields = dict(id=f"p{n % 3}", tier=MemoryTier.SEMANTIC, content=draw(_TEXT), embedding=embedding)
        pool.append(MemoryItem(**fields))
        if draw(st.booleans()):
            flipped = tuple(-v if v == 0.0 else v for v in embedding)
            pool.append(MemoryItem(**{**fields, "embedding": flipped}))
    return [
        _spawn_with(draw(st.lists(st.sampled_from(pool), max_size=5)), f"spawn-{n}")
        for n in range(draw(st.integers(1, 5)))
    ]


@settings(max_examples=100, deadline=None)
@given(_packages_from_one_pool())
def test_packages_sharing_an_item_pool_match_json_dumps(packages):
    for package in packages:
        assert encode_package(package) == _reference_bytes(package)


def test_write_checkpoint_streams_the_bytes_of_encode_package(tmp_path):
    """A checkpoint holds ``encode_package``'s bytes, written a slice of
    parts at a time: a package whose items are already encoded is
    written without a joined copy of its bytes."""
    spawn, resume = _spawn_with(_fresh_items()), _resume()
    for package in (spawn, resume, spawn):
        path = protocol.write_checkpoint(package, tmp_path)
        assert path.read_bytes() == encode_package(package)
    large = _spawn_with(_fresh_items(3000), "spawn-0002")
    size = len(encode_package(large))  # keeps each item's wire bytes
    tracemalloc.start()
    try:
        path = protocol.write_checkpoint(large, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    assert peak < size / 4, (peak, size)


def test_write_checkpoint_of_a_package_that_cannot_encode_leaves_no_file(tmp_path):
    item = MemoryItem("s", MemoryTier.EPISODIC, "lone \ud800 surrogate", embedding=(0.25,))
    with pytest.raises(UnicodeEncodeError):
        protocol.write_checkpoint(_spawn_with([item]), tmp_path / "checkpoints")
    assert list(tmp_path.iterdir()) == []


# Values over a constructor argument's whole type: empty names, negative
# and huge integers, and NaN, infinite and negative floats.
_ANY_FLOAT = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, -1.0, 1.5, 5e-324)), st.floats()
)
_ANY_INT = st.one_of(st.sampled_from((-1, 0, 1, 2**53, 2**53 + 1)), st.integers(-(2**64), 2**64))
_MODULE_ERRORS = (ProtocolError, MemoryError, SkillError, PolicyError, DiffError)
_SKILL_ARGS = ("skill.id", "skill.provenance", "skill.success_stat", "diff.file", "hunk.start_line")
_SPAWN_ARGS = _SKILL_ARGS + (
    "spawn_id", "parent_id", "timestamp", "score", "item.id", "item.tier", "item.created_at_step",
    "item.embedding", "context.line_number", "task.description", "metrics",
)
_RESUME_ARGS = _SKILL_ARGS + (
    "spawn_id", "execution_time", "trace.step", "tokens_used", "api_calls", "test_pass_rate",
)


def _arg_drawer(draw, names):
    """``arg(name, valid, whole)`` draws every argument from its valid
    range but one, chosen per example (or none), which it draws from
    ``whole``, the argument's whole type."""
    chosen = draw(st.sampled_from((None,) + names))
    return lambda name, valid, whole: draw(whole if name == chosen else valid)


def _any_diffs(draw, arg):
    return [
        (arg("diff.file", _NAME, _TEXT), arg("hunk.start_line", st.integers(1, 2**53), _ANY_INT), old, new)
        for old, new in draw(st.lists(st.tuples(_LINES, _LINES), max_size=2))
    ]


def _build_diffs(args):
    return tuple(Diff(file, (Hunk(start, old, new),)) for file, start, old, new in args)


def _any_skills(draw, arg, provenance):
    args = []
    for names in draw(st.lists(st.lists(_PLACEHOLDER, max_size=2, unique=True), max_size=2)):
        args.append(
            dict(
                id=arg("skill.id", _NAME, _TEXT),
                template=draw(_TEXT) + "".join(f"{{{n}}}" for n in names),
                params={n: draw(_TEXT) for n in names},
                provenance=arg("skill.provenance", st.just(provenance), st.sampled_from(list(Provenance))),
                success_stat=arg(
                    "skill.success_stat",
                    st.none() | _UNIT if provenance is Provenance.LEARNED else st.none(),
                    st.none() | _ANY_FLOAT,
                ),
            )
        )
    return args


@st.composite
def _any_spawn_packages(draw):
    """A function that builds a spawn package from drawn arguments; items
    may be filed under a tier other than their own."""
    arg = _arg_drawer(draw, _SPAWN_ARGS)
    items = []
    for _ in range(draw(st.integers(1, 3))):
        tier = draw(st.sampled_from(list(MemoryTier)))
        item = dict(
            id=arg("item.id", _NAME, _TEXT),
            tier=tier,
            content=draw(_TEXT),
            referenced_files=draw(st.frozensets(_TEXT, max_size=2)),
            referenced_symbols=draw(st.frozensets(_TEXT, max_size=2)),
            created_at_step=arg("item.created_at_step", st.integers(0, 2**53), _ANY_INT),
            embedding=tuple(arg("item.embedding", st.lists(_FLOATS, max_size=3), st.lists(_ANY_FLOAT, max_size=3))),
        )
        other = st.sampled_from([t for t in MemoryTier if t is not tier])
        items.append((item, arg("item.tier", st.just(tier), other)))
    skills, diffs = _any_skills(draw, arg, Provenance.INHERITED), _any_diffs(draw, arg)
    fields = dict(
        spawn_id=arg("spawn_id", _NAME, _TEXT),
        parent_id=arg("parent_id", _NAME, _TEXT),
        timestamp=arg("timestamp", _NONNEG, _ANY_FLOAT),
        score=arg("score", _UNIT, _ANY_FLOAT),
    )
    context = dict(
        repo_path=draw(_TEXT),
        current_file=draw(_TEXT),
        line_number=arg("context.line_number", st.integers(0, 2**53), _ANY_INT),
    )
    task = dict(
        description=arg("task.description", _NAME, _TEXT),
        constraints=draw(_LINES),
        expected_outcome=draw(_TEXT),
        referenced_files=draw(st.frozensets(_TEXT, max_size=2)),
        referenced_symbols=draw(st.frozensets(_TEXT, max_size=2)),
    )
    metrics = arg(
        "metrics",
        st.tuples(_NONNEG, _NONNEG, _NONNEG, _UNIT, _NONNEG),
        st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT),
    )

    def build():
        memory = {tier: [] for tier in MemoryTier}
        for args, filed_under in items:
            memory[filed_under].append(MemoryItem(**args))
        return SpawnPackage(
            memory=memory,
            skills=tuple(Skill(**a) for a in skills),
            context=ExecutionContext(**context, pending_changes=_build_diffs(diffs)),
            task=TaskSpec(**task),
            metrics=ComplexityMetrics(*metrics),
            **fields,
        )

    return build


@st.composite
def _any_resume_packages(draw):
    """A function that builds a resume package from drawn arguments. The
    trace runs in step order and ``files_modified`` names the diffed
    files: ``validate_resume`` reports either breach as a child's error,
    so tests build packages that carry one."""
    arg = _arg_drawer(draw, _RESUME_ARGS)
    skills, diffs = _any_skills(draw, arg, Provenance.LEARNED), _any_diffs(draw, arg)
    steps = sorted(arg("trace.step", st.sets(st.integers(-(2**53), 2**53), max_size=3), st.sets(_ANY_INT, max_size=3)))
    trace = [(step, draw(st.sampled_from(list(ActionKind))), draw(_TEXT)) for step in steps]
    fields = dict(
        spawn_id=arg("spawn_id", _NAME, _TEXT),
        status=draw(st.sampled_from(list(ChildStatus))),
        execution_time=arg("execution_time", _NONNEG, _ANY_FLOAT),
    )
    output = draw(_TEXT)
    metrics = (
        arg("tokens_used", st.integers(0, 2**53), _ANY_INT),
        arg("api_calls", st.integers(0, 2**53), _ANY_INT),
        arg("test_pass_rate", _UNIT, _ANY_FLOAT),
    )

    def build():
        code_diff = _build_diffs(diffs)
        return ResumePackage(
            result=ResultPayload(output, code_diff, frozenset(d.file for d in code_diff)),
            trace=tuple(Action(*a) for a in trace),
            skills_learned=tuple(Skill(**a) for a in skills),
            metrics=ChildMetrics(*metrics),
            **fields,
        )

    return build


@settings(max_examples=300, deadline=None)
@given(st.one_of(_any_spawn_packages(), _any_resume_packages()))
def test_whatever_the_constructors_build_the_codec_carries(build):
    """Construction raises the module's own error, or the package
    survives the wire unchanged."""
    try:
        package = build()
    except _MODULE_ERRORS:
        return
    assert decode_package(encode_package(package)) == package


def _spawn(**changes):
    return lambda: dataclasses.replace(_package(None), **changes)


_ITEM = MemoryItem("m", MemoryTier.SEMANTIC, "x")


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(_spawn(spawn_id=""), ProtocolError, id="spawn_id"),
        pytest.param(_spawn(parent_id=""), ProtocolError, id="parent_id"),
        pytest.param(_spawn(timestamp=-1.0), ProtocolError, id="negative_timestamp"),
        pytest.param(_spawn(timestamp=math.inf), ProtocolError, id="infinite_timestamp"),
        pytest.param(_spawn(score=math.nan), ProtocolError, id="nan_score"),
        pytest.param(_spawn(memory={MemoryTier.WORKING: (_ITEM,)}), ProtocolError, id="misfiled_item"),
        pytest.param(lambda: _resume(spawn_id=""), ProtocolError, id="resume_spawn_id"),
        pytest.param(lambda: _resume(execution_time=-0.5), ProtocolError, id="negative_execution_time"),
        pytest.param(lambda: _resume(execution_time=math.nan), ProtocolError, id="nan_execution_time"),
        pytest.param(lambda: ChildMetrics(-1, 0, 0.5), ProtocolError, id="negative_tokens"),
        pytest.param(lambda: ChildMetrics(0, 2**53 + 1, 0.5), ProtocolError, id="huge_api_calls"),
        pytest.param(lambda: ChildMetrics(0, 0, 1.5), ProtocolError, id="pass_rate_above_one"),
        pytest.param(lambda: Action(2**53 + 1, ActionKind.EDIT, "x"), ProtocolError, id="huge_step"),
        pytest.param(
            lambda: ExecutionContext(repo_path="r", line_number=2**53 + 1), ProtocolError, id="huge_line_number"
        ),
        pytest.param(lambda: MemoryItem("", MemoryTier.SEMANTIC, "x"), MemoryError, id="item_id"),
        pytest.param(
            lambda: MemoryItem("m", MemoryTier.SEMANTIC, "x", created_at_step=2**53 + 1), MemoryError, id="huge_item_step"
        ),
        pytest.param(lambda: Skill(id="", template="t"), SkillError, id="skill_id"),
        pytest.param(lambda: Diff("", ()), DiffError, id="diff_file"),
        pytest.param(lambda: Hunk(2**53 + 1, (), ("x",)), DiffError, id="huge_start_line"),
        pytest.param(lambda: Hunk(2.5, (), ("x",)), DiffError, id="float_start_line"),
        pytest.param(lambda: Hunk(3.0, (), ("x",)), DiffError, id="integral_float_start_line"),
        pytest.param(lambda: Hunk(True, (), ("x",)), DiffError, id="bool_start_line"),
        pytest.param(lambda: Hunk("3", (), ("x",)), DiffError, id="str_start_line"),
    ],
)
def test_constructors_reject_what_the_wire_rejects(build, error):
    with pytest.raises(error):
        build()


# MemoryItem, ComplexityMetrics and ResumePackage reject non-finite values,
# so these set them past the constructor to reach the writer's own check.
def _with_embedding(embedding):
    item = MemoryItem("bad", MemoryTier.SEMANTIC, "bad")
    object.__setattr__(item, "embedding", embedding)
    return dataclasses.replace(_package(None), memory={MemoryTier.SEMANTIC: (item,)})


def _with_metric(value):
    metrics = ComplexityMetrics(1, 1, 1, 0.5, 1)
    object.__setattr__(metrics, "interdependency", value)
    return dataclasses.replace(_package(None), metrics=metrics)


def _with_execution_time(value):
    resume = _resume()
    object.__setattr__(resume, "execution_time", value)
    return resume


_MEMO_FULL = tuple(float(n) + 0.5 for n in range(schema.FLOAT_MEMO))


@pytest.mark.parametrize(
    "package, error",
    [
        (_with_embedding((0.5, math.nan)), ValueError),
        (_with_embedding((math.inf, 0.5)), ValueError),
        (_with_embedding((-math.inf,)), ValueError),
        (_with_embedding((-0.0, math.nan)), ValueError),
        (_with_embedding(_MEMO_FULL + (math.nan,)), ValueError),
        (_with_metric(math.nan), ValueError),
        (_with_metric(math.inf), ValueError),
        (_with_execution_time(math.inf), ValueError),
        (_resume(result=ResultPayload(output="lone \ud800 surrogate")), UnicodeEncodeError),
        (dataclasses.replace(_package(None), task=TaskSpec(description="\udfff")), UnicodeEncodeError),
        (TaskSpec(description="not a package"), ProtocolError),
    ],
)
def test_wire_writer_raises_what_json_dumps_raises(package, error):
    """Each row raises the same error from the writer as from the
    ``json.dumps`` reference; only packages have a reference."""
    if isinstance(package, (SpawnPackage, ResumePackage)):
        with pytest.raises(error):
            _reference_bytes(package)
    with pytest.raises(error):
        encode_package(package)


def test_decode_missing_key():
    obj = json.loads(encode_package(_resume()))
    del obj["spawn_id"]
    with pytest.raises(PackageDecodeError) as err:
        decode_package(json.dumps(obj))
    assert err.value.kind == "missing_key"
    assert "spawn_id" in str(err.value)


def test_decode_unknown_key():
    obj = json.loads(encode_package(_resume()))
    obj["surprise"] = 1
    with pytest.raises(PackageDecodeError) as err:
        decode_package(json.dumps(obj))
    assert err.value.kind == "unknown_key"


def test_decode_out_of_range_test_pass_rate():
    obj = json.loads(encode_package(_resume()))
    obj["metrics"]["test_pass_rate"] = 1.5
    with pytest.raises(PackageDecodeError) as err:
        decode_package(json.dumps(obj))
    assert err.value.kind == "out_of_range"
    assert "test_pass_rate" in err.value.path


def test_decode_inconsistent_files_modified():
    obj = json.loads(encode_package(_resume()))
    obj["result"]["files_modified"] = ["ghost.py"]
    with pytest.raises(PackageDecodeError) as err:
        decode_package(json.dumps(obj))
    assert "files_modified" in err.value.path


def test_decode_rejects_bad_status_and_garbage():
    obj = json.loads(encode_package(_resume()))
    obj["status"] = "mystery"
    with pytest.raises(PackageDecodeError):
        decode_package(json.dumps(obj))
    with pytest.raises(PackageDecodeError):
        decode_package(b"not json at all")
    with pytest.raises(PackageDecodeError):
        decode_package(json.dumps({"neither": 1}))


def test_decode_turns_too_deep_nesting_into_a_decode_error(tmp_path):
    deep = b"[" * 200000
    with pytest.raises(PackageDecodeError) as err:
        decode_package(deep)
    assert (err.value.kind, err.value.path) == ("bad_json", "$")
    path = tmp_path / "resume_deep.json"
    path.write_bytes(deep)
    with pytest.raises(PackageDecodeError) as err:
        read_checkpoint(path)
    assert err.value.kind == "bad_json"


def test_decode_valid_resume_status(embedder):
    decoded = decode_package(encode_package(_resume()))
    assert isinstance(decoded, ResumePackage)
    assert decoded.status is ChildStatus.SUCCESS


def test_checkpoint_files_round_trip(tmp_path, embedder):
    pkg = _package(embedder)
    path = write_checkpoint(pkg, tmp_path)
    assert path.name == "spawn_spawn-0001.json"
    assert read_checkpoint(path) == pkg
    resume = _resume()
    path = write_checkpoint(resume, tmp_path)
    assert path.name == "resume_spawn-0001.json"
    assert read_checkpoint(path) == resume


def test_summarize_keeps_decisions_and_endpoints():
    trace = tuple(
        Action(step=i, kind=ActionKind.DECISION if i in (4, 7) else ActionKind.EDIT, summary=f"a{i}")
        for i in range(1, 11)
    )
    summary = summarize_trace(trace)
    assert [a.step for a in summary] == [1, 4, 7, 10]


def test_summarize_empty_and_all_decision_traces():
    assert summarize_trace(()) == ()
    decisions = tuple(Action(step=i, kind=ActionKind.DECISION, summary="d") for i in range(1, 5))
    assert summarize_trace(decisions) == decisions


def test_summarize_deduplicates_overlapping_endpoints():
    trace = (Action(1, ActionKind.DECISION, "only"),)
    assert summarize_trace(trace) == trace


def test_validate_resume_accepts_matching_consistent_result(embedder):
    assert validate_resume(_resume(), _package(embedder)) == []


def test_validate_resume_flags_wrong_child(embedder):
    errors = validate_resume(_resume(spawn_id="spawn-0999"), _package(embedder))
    assert any("wrong child" in e for e in errors)


def test_validate_resume_flags_files_modified_mismatch(embedder):
    diff = Diff(file="src/a.py", hunks=(Hunk(1, (), ("x",)),))
    resume = _resume(result=ResultPayload(output="o", code_diff=(diff,), files_modified=frozenset()))
    errors = validate_resume(resume, _package(embedder))
    assert any("files_modified" in e for e in errors)


def test_validate_resume_flags_bad_metrics_and_trace(embedder):
    resume = _resume(
        metrics=ChildMetrics(5, 1, 0.5),
        trace=(Action(3, ActionKind.EDIT, "x"), Action(3, ActionKind.EDIT, "y")),
    )
    errors = validate_resume(resume, _package(embedder))
    assert any("strictly increasing" in e for e in errors)


def test_validate_resume_is_side_effect_free(embedder):
    pkg = _package(embedder)
    resume = _resume()
    before = encode_package(resume)
    validate_resume(resume, pkg)
    assert encode_package(resume) == before


def _parent_state(embedder, files=None):
    store = MemoryStore(DIM, current_step=5)
    store.add(make_item("seed", MemoryTier.SEMANTIC, "existing knowledge", embedder, created_at_step=2))
    return ParentState(
        memory=store,
        skills=SkillLibrary([Skill(id="base", template="do the {thing}")]),
        files=files if files is not None else {"src/a.py": ["line one", "line two"]},
    )


def test_replay_success_promotes_skill_and_stages_diff(embedder):
    state = _parent_state(embedder)
    learned = Skill(id="fresh", template="new trick", provenance=Provenance.LEARNED, success_stat=0.9)
    diff = Diff(file="src/a.py", hunks=(Hunk(2, ("line two",), ("line 2",)),))
    resume = _resume(
        skills_learned=(learned,),
        result=ResultPayload(output="done", code_diff=(diff,), files_modified=frozenset({"src/a.py"})),
    )
    report = replay_resume(state, resume, embedder, 0.8)
    assert report.skills_promoted == 1
    assert "fresh" in state.skills
    assert report.diffs_staged == 1
    assert state.staged == [("spawn-0001", [diff])]


def test_replay_failure_grows_memory_only(embedder):
    state = _parent_state(embedder)
    learned = Skill(id="fresh", template="new trick", provenance=Provenance.LEARNED, success_stat=0.99)
    diff = Diff(file="src/a.py", hunks=(Hunk(1, ("line one",), ("changed",)),))
    resume = _resume(
        status=ChildStatus.FAILURE,
        skills_learned=(learned,),
        result=ResultPayload(output="broke", code_diff=(diff,), files_modified=frozenset({"src/a.py"})),
    )
    episodic_before = len(tier_items(state.memory, MemoryTier.EPISODIC))
    report = replay_resume(state, resume, embedder, 0.8)
    assert len(tier_items(state.memory, MemoryTier.EPISODIC)) > episodic_before
    assert report.skills_promoted == 0
    assert report.diffs_staged == 0
    assert state.staged == []
    assert "fresh" not in state.skills


def test_replay_episodic_grows_by_summary_plus_output(embedder):
    state = _parent_state(embedder)
    resume = _resume()
    summary = summarize_trace(resume.trace)
    before = len(tier_items(state.memory, MemoryTier.EPISODIC))
    report = replay_resume(state, resume, embedder, 0.8)
    after = len(tier_items(state.memory, MemoryTier.EPISODIC))
    assert after - before == len(summary) + 1 == report.memory_items_added


def test_replay_touches_only_episodic_tier(embedder):
    state = _parent_state(embedder)
    semantic_before = tier_items(state.memory, MemoryTier.SEMANTIC)
    working_before = tier_items(state.memory, MemoryTier.WORKING)
    replay_resume(state, _resume(), embedder, 0.8)
    assert tier_items(state.memory, MemoryTier.SEMANTIC) == semantic_before
    assert tier_items(state.memory, MemoryTier.WORKING) == working_before


def test_replay_new_items_stamped_at_current_step(embedder):
    state = _parent_state(embedder)
    replay_resume(state, _resume(), embedder, 0.8)
    fresh = [i for i in tier_items(state.memory, MemoryTier.EPISODIC) if i.id.startswith("spawn-0001")]
    assert fresh and all(i.created_at_step == state.memory.current_step for i in fresh)


def test_replay_partial_stages_only_clean_diffs(embedder):
    state = _parent_state(embedder)
    good = Diff(file="src/a.py", hunks=(Hunk(1, ("line one",), ("better one",)),))
    bad = Diff(file="src/a.py", hunks=(Hunk(2, ("NOT THERE",), ("x",)),))
    resume = _resume(
        status=ChildStatus.PARTIAL,
        result=ResultPayload(
            output="half", code_diff=(good, bad), files_modified=frozenset({"src/a.py"})
        ),
    )
    report = replay_resume(state, resume, embedder, 0.8)
    assert report.diffs_staged == 1
    assert len(report.diffs_rejected) == 1
    assert state.staged == [("spawn-0001", [good])]


def test_replay_stamps_missing_success_stat_from_pass_rate(embedder):
    state = _parent_state(embedder)
    unstamped = Skill(id="fresh", template="new trick", provenance=Provenance.LEARNED)
    resume = _resume(skills_learned=(unstamped,), metrics=ChildMetrics(10, 1, 0.95))
    report = replay_resume(state, resume, embedder, 0.9)
    assert report.skills_promoted == 1
    promoted = [s for s in state.skills.skills() if s.id == "fresh"]
    assert promoted and promoted[0].success_stat == pytest.approx(0.95)
