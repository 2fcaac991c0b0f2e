from __future__ import annotations

import hashlib
import math
import operator
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentfork import memory, schema
from agentfork.config import SimulatorConfig
from agentfork.memory import (
    EMBED_MEMO,
    DefaultEmbedder,
    MemoryError,
    MemoryItem,
    MemoryStore,
    MemoryTier,
    compute_relevance,
    count_tokens,
    default_embed,
    extract_keywords,
    make_item,
    reduction_percent,
    slice_memory,
    task_references,
)
from agentfork.protocol import TaskSpec

from conftest import (
    DIM, FILES, SYMBOLS, WORDS, at_threshold, cosine, random_store, random_task, snapshot_store, tier_items,
)


def test_extract_keywords_drops_stopwords_and_lowercases():
    assert extract_keywords("Fix the JSON parser") == {"fix", "json", "parser"}


def test_extract_keywords_empty_text():
    assert extract_keywords("") == frozenset()


def test_extract_keywords_length_filter():
    assert extract_keywords("a b") == frozenset()


def test_default_embed_deterministic_and_unit_norm():
    v1 = default_embed("parse the json header", 32)
    v2 = default_embed("parse the json header", 32)
    assert v1 == v2
    assert math.isclose(sum(x * x for x in v1), 1.0, rel_tol=1e-12)
    assert all(x >= 0 for x in v1)


def test_default_embed_self_similarity():
    v = default_embed("schema block reader", 32)
    assert cosine(v, v) == pytest.approx(1.0)


def test_default_embed_zero_vector_for_tokenless_text():
    assert default_embed("!!! ??", 8) == (0.0,) * 8
    assert cosine(default_embed("", 8), default_embed("word", 8)) == 0.0


def test_default_embed_disjoint_buckets_give_zero_cosine():
    # brute-force a pair of texts whose token buckets do not collide
    dim = 16
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    bucket = {
        w: next(i for i, x in enumerate(default_embed(w, dim)) if x > 0) for w in vocab
    }
    found = None
    for a in vocab:
        for b in vocab:
            for c in vocab:
                for d in vocab:
                    if {bucket[a], bucket[b]} & {bucket[c], bucket[d]}:
                        continue
                    found = (f"{a} {b}", f"{c} {d}")
                    break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    left, right = found
    assert cosine(default_embed(left, dim), default_embed(right, dim)) == pytest.approx(0.0)


class _FixedEmbedder:
    """Returns a constant vector so cosine can be pinned exactly."""

    def __init__(self, vector):
        self.vector = tuple(vector)
        self.dim = len(self.vector)

    def __call__(self, text):
        return self.vector


def test_compute_relevance_weighted_sum_recomputed_by_hand():
    # components pinned to (0.5, 0.2, 0.8, 0.6): one of two keywords,
    # one of five referenced files, age one with decay ln(1.25), and a
    # fixed embedding pair with cosine 0.6
    task = TaskSpec(
        description="alpha beta",
        referenced_files=frozenset({"f1", "f2", "f3", "f4", "f5"}),
    )
    item = MemoryItem(
        id="m",
        tier=MemoryTier.SEMANTIC,
        content="alpha filler",
        referenced_files=frozenset({"f1"}),
        created_at_step=4,
        embedding=(0.6, 0.8),
    )
    config = SimulatorConfig(alpha=0.3, beta=0.3, gamma=0.2, delta=0.2, lambda_decay=-math.log(0.8))
    score = compute_relevance(item, task, config, now_step=5, embedder=_FixedEmbedder((1.0, 0.0)))
    assert score == pytest.approx(0.3 * 0.5 + 0.3 * 0.2 + 0.2 * 0.8 + 0.2 * 0.6, abs=1e-9)
    assert score == pytest.approx(0.49, abs=1e-9)


def test_task_terms_follow_every_task_field_they_read(embedder):
    """Tasks that share a description but differ in their references, or
    differ only in a path-like token, score as the per-item reference
    says, however they interleave."""
    base = dict(description="fix parser in src/a.py", constraints=("fast",))
    tasks = [
        TaskSpec(**base),
        TaskSpec(**base, referenced_files=frozenset({"src/b.py"})),
        TaskSpec(**base, referenced_symbols=frozenset({"parse"})),
        TaskSpec(**{**base, "description": "fix parser in src/b.py"}),
        TaskSpec(**{**base, "constraints": ()}),
    ]
    items = [
        make_item(f"m{n}", MemoryTier.SEMANTIC, "parser fix", embedder, referenced_files=files,
                  referenced_symbols=symbols)
        for n, (files, symbols) in enumerate(
            [({"src/a.py"}, ()), ({"src/b.py"}, ()), ((), {"parse"}), ((), ())]
        )
    ]
    config = SimulatorConfig()
    for task in tasks + tasks[::-1] + tasks:
        keywords, refs = extract_keywords(task.description), task_references(task)
        for item in items:
            expected = _reference_relevance(item, keywords, refs, embedder(task.description), config, 0)
            assert compute_relevance(item, task, config, 0, embedder) == expected


def test_compute_relevance_all_components_one(embedder):
    task = TaskSpec(description="parser json", referenced_files=frozenset({"src/a.py"}))
    item = make_item(
        "m", MemoryTier.WORKING, "parser json", embedder,
        referenced_files={"src/a.py"}, created_at_step=3,
    )
    score = compute_relevance(item, task, SimulatorConfig(), now_step=3, embedder=embedder)
    assert score == pytest.approx(1.0, abs=1e-9)


def test_compute_relevance_age_zero_temporal_is_one(embedder):
    task = TaskSpec(description="unrelated words entirely")
    item = make_item("m", MemoryTier.EPISODIC, "xoxoxo qqq", embedder, created_at_step=7)
    config = SimulatorConfig(alpha=0.0, beta=0.0, gamma=1.0, delta=0.0)
    assert compute_relevance(item, task, config, 7, embedder) == pytest.approx(1.0)


def test_make_item_without_references_shares_one_empty_set(embedder):
    # A run adds episodic items without references, and a workload file
    # lists empty ones; fresh empty frozensets would cost two
    # allocations per item.
    items = [
        make_item("a", MemoryTier.EPISODIC, "one", embedder),
        make_item("b", MemoryTier.EPISODIC, "two", embedder, referenced_files=(), referenced_symbols=[]),
        make_item("c", "semantic", "three", embedder, referenced_files=[], referenced_symbols=()),
        MemoryItem("d", MemoryTier.WORKING, "four"),
        MemoryItem("e", MemoryTier.WORKING, "five", referenced_files=[], referenced_symbols=()),
        MemoryItem("f", MemoryTier.WORKING, "six", referenced_files=(), referenced_symbols=set()),
    ]
    first = items[0]
    assert first.referenced_files == first.referenced_symbols == frozenset()
    for item in items:
        assert item.referenced_files is first.referenced_files
        assert item.referenced_symbols is first.referenced_files


def test_compute_relevance_dimension_mismatch(embedder):
    task = random_task(random.Random(0))
    item = MemoryItem(id="m", tier=MemoryTier.EPISODIC, content="x", embedding=(1.0,) * 4)
    with pytest.raises(MemoryError):
        compute_relevance(item, task, SimulatorConfig(), 0, embedder)


def test_weights_must_sum_to_one():
    with pytest.raises(MemoryError):
        SimulatorConfig(alpha=0.5, beta=0.5, gamma=0.5, delta=0.5)
    with pytest.raises(schema.FieldError) as raised:
        SimulatorConfig(alpha=-0.1, beta=0.5, gamma=0.3, delta=0.3)
    assert raised.value.key == "alpha"


def test_slice_empty_store(embedder):
    store = MemoryStore(DIM)
    task = TaskSpec(description="anything")
    assert slice_memory(store, task, at_threshold(SimulatorConfig(), 0.5), embedder).items == ()


def test_slice_strict_threshold_and_order(embedder):
    rng = random.Random(3)
    store = random_store(rng, embedder, max_items=80)
    task = random_task(rng)
    config = SimulatorConfig()
    threshold = 0.4
    sliced = slice_memory(store, task, at_threshold(config, threshold), embedder)
    oracle = [
        item
        for item in store.items()
        if compute_relevance(item, task, config, store.current_step, embedder) > threshold
    ]
    assert list(sliced.items) == oracle


def test_slice_above_gamma_plus_delta_scores_only_the_items_its_postings_reach(embedder, monkeypatch):
    """With the default config (gamma + delta = 0.4), a slice at 0.5
    takes the dot product of exactly the items that share a keyword or a
    reference with the task and whose other three terms do not clear the
    cut, in store order; at 0.3, of every item whose other three terms
    do not clear it."""
    store = MemoryStore(DIM, current_step=3)
    contents = [
        "parser cache", "queue worker", "json header", "retry budget", "schema lock", "parser json", "fix json parser",
    ]
    for n, content in enumerate(contents):
        store.add(
            make_item(
                f"m{n}", list(MemoryTier)[n % 3], content, embedder,
                referenced_files=["src/config.py"] if n in (4, 6) else (), created_at_step=3 if n == 6 else n % 4,
            )
        )
    task = TaskSpec(description="fix the parser for json", referenced_files=frozenset({"src/config.py"}))
    by_id = {i.id: i for i in store.items()}
    seen = []
    dot_with = memory.dot_with

    def counting_dot_with(vector):
        dot = dot_with(vector)

        def counted(embedding):
            seen.append(embedding)
            return dot(embedding)

        return counted

    monkeypatch.setattr(memory, "dot_with", counting_dot_with)
    # Without its semantic term m6 scores 0.8, m4 0.448, m5 0.364 and every
    # other item at most 0.281; m1 and m3 hold no task keyword or reference.
    for threshold, scored in ((0.5, ["m0", "m4", "m2", "m5"]), (0.3, ["m0", "m3", "m1", "m2"])):
        seen.clear()
        sliced = slice_memory(store, task, at_threshold(SimulatorConfig(), threshold), embedder)
        assert [id(e) for e in seen] == [id(by_id[i].embedding) for i in scored]
        assert list(sliced.items) == [
            i for i in store.items()
            if compute_relevance(i, task, SimulatorConfig(), store.current_step, embedder) > threshold
        ]
        assert sliced.tokens == count_tokens(sliced.items)


def test_slice_at_a_threshold_equal_to_the_other_terms_keeps_only_a_positive_semantic_term():
    """Items whose keyword, reference and recency terms sum to exactly
    the threshold: the cut is strict, so only a positive cosine keeps one."""
    task = TaskSpec(description="parser json", referenced_files=frozenset({"src/a.py"}))
    embedder = _FixedEmbedder((1.0, 0.0, 0.0, 0.0))
    config = SimulatorConfig()
    rows = {
        "parallel": (1.0, 0.0, 0.0, 0.0),
        "acute": (1.0, 1.0, 0.0, 0.0),
        "orthogonal": (0.0, 1.0, 0.0, 0.0),
        "opposite": (-1.0, 0.0, 0.0, 0.0),
        "zero": (0.0, 0.0, 0.0, 0.0),
    }
    store = MemoryStore(4, current_step=2)
    for item_id, embedding in rows.items():
        store.add(
            MemoryItem(
                id=item_id, tier=MemoryTier.SEMANTIC, content="parser notes", embedding=embedding,
                referenced_files=frozenset({"src/a.py"}), created_at_step=1,
            )
        )
    partial = config.alpha * 0.5 + config.beta * 1.0 + config.gamma * math.exp(-config.lambda_decay)
    scores = {item.id: compute_relevance(item, task, config, 2, embedder) for item in store.items()}
    assert [k for k, score in scores.items() if score == partial] == ["orthogonal", "opposite", "zero"]
    sliced = slice_memory(store, task, at_threshold(config, partial), embedder)
    assert [i.id for i in sliced.items] == ["parallel", "acute"]
    assert sliced.tokens == 4
    # With delta = 0 no item has a semantic term to add.
    zero_delta = SimulatorConfig(alpha=0.4, beta=0.3, gamma=0.3, delta=0.0)
    partial = zero_delta.alpha * 0.5 + zero_delta.beta * 1.0 + zero_delta.gamma * math.exp(-zero_delta.lambda_decay)
    assert slice_memory(store, task, at_threshold(zero_delta, partial), embedder).items == ()
    assert len(slice_memory(store, task, at_threshold(zero_delta, math.nextafter(partial, 0.0)), embedder)) == 5


def test_slice_at_delta_zero_scores_an_item_whose_cosine_overflows_in_full():
    """Near the top of the float range a dot product can overflow while
    the product of the norms does not. The cosine is then infinite, and
    at delta = 0 the semantic term is NaN, so the item is never kept,
    however far its other terms clear the threshold."""
    item = MemoryItem(
        id="edge", tier=MemoryTier.SEMANTIC, content="parser",
        embedding=(8.823278287241527e153, 1.0095497697098633e154),
    )
    embedder = _FixedEmbedder((8.823278287241524e153, 1.0095497697098636e154))
    config = SimulatorConfig(alpha=0.4, beta=0.3, gamma=0.3, delta=0.0)
    task = TaskSpec(description="parser")
    assert math.isnan(compute_relevance(item, task, config, 0, embedder))
    sliced = slice_memory(MemoryStore(2, items=[item]), task, at_threshold(config, 0.0), embedder)
    assert (sliced.items, sliced.tokens) == ((), 0)


def test_slice_is_read_only(embedder):
    rng = random.Random(4)
    store = random_store(rng, embedder, max_items=40)
    before = store.content_digest()
    version = store.version
    slice_memory(store, random_task(rng), at_threshold(SimulatorConfig(), 0.3), embedder)
    assert store.content_digest() == before
    assert store.version == version


def test_snapshot_isolated_from_source(embedder):
    store = MemoryStore(DIM, current_step=2)
    store.add(make_item("a", MemoryTier.EPISODIC, "one", embedder, created_at_step=1))
    copy = snapshot_store(store)
    assert copy == store
    copy.add(make_item("b", MemoryTier.WORKING, "two", embedder, created_at_step=0))
    assert "b" in copy and "b" not in store
    assert len(store) == 1


def test_snapshot_of_empty_store(embedder):
    store = MemoryStore(DIM)
    assert snapshot_store(store) == store


def test_count_tokens():
    assert count_tokens([]) == 0
    item = MemoryItem(id="x", tier=MemoryTier.WORKING, content="a b c", embedding=())
    assert count_tokens([item]) == 3


def test_reduction_percent_matches_definition():
    assert reduction_percent(100, 58) == pytest.approx(42.0)
    assert reduction_percent(0, 0) == 0.0


def test_store_rejects_duplicate_ids_and_bad_dims(embedder):
    store = MemoryStore(DIM)
    store.add(make_item("a", MemoryTier.EPISODIC, "words", embedder))
    with pytest.raises(MemoryError):
        store.add(make_item("a", MemoryTier.EPISODIC, "again", embedder))
    with pytest.raises(MemoryError):
        store.add(MemoryItem(id="b", tier=MemoryTier.EPISODIC, content="x", embedding=(1.0,)))
    with pytest.raises(MemoryError):
        store.add(
            make_item("c", MemoryTier.EPISODIC, "future", embedder, created_at_step=99)
        )


@pytest.mark.parametrize("embedding", [(math.inf,), (0.5, -math.inf), (0.5, math.nan)])
def test_item_rejects_non_finite_embedding(embedding):
    with pytest.raises(MemoryError, match="finite"):
        MemoryItem(id="x", tier=MemoryTier.EPISODIC, content="x", embedding=embedding)


def test_item_accepts_finite_embedding_whose_sum_overflows():
    item = MemoryItem(id="x", tier=MemoryTier.EPISODIC, content="x", embedding=(1e308, 1e308))
    assert item.embedding == (1e308, 1e308)


def test_item_keeps_a_tuple_of_exact_floats_as_given():
    for embedding in ((), (0.5, -0.0, 1e308, 5e-324), default_embed("parser json", DIM)):
        item = MemoryItem(id="x", tier=MemoryTier.EPISODIC, content="x", embedding=embedding)
        assert item.embedding is embedding


class _Float(float):
    pass


class _Tuple(tuple):
    pass


@pytest.mark.parametrize(
    "embedding",
    [[0.5, -0.0], (1, 0, 2**53), (True, 0.5), (False,), (0.25, _Float(0.5)), _Tuple((0.5, 1.0))],
    ids=["list", "ints", "true", "false", "float-subclass", "tuple-subclass"],
)
def test_item_turns_other_embeddings_into_a_tuple_of_exact_floats(embedding):
    item = MemoryItem(id="x", tier=MemoryTier.EPISODIC, content="x", embedding=embedding)
    assert item.embedding is not embedding and type(item.embedding) is tuple
    assert all(type(v) is float for v in item.embedding)
    assert [struct.pack("<d", v) for v in item.embedding] == [struct.pack("<d", float(v)) for v in embedding]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_relevance_always_in_unit_interval(seed):
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    store = random_store(rng, embedder, max_items=12)
    task = random_task(rng)
    for item in store.items():
        r = compute_relevance(item, task, SimulatorConfig(), store.current_step, embedder)
        assert 0.0 <= r <= 1.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), lo=st.floats(0, 1), hi=st.floats(0, 1))
def test_threshold_monotonicity(seed, lo, hi):
    lo, hi = min(lo, hi), max(lo, hi)
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    store = random_store(rng, embedder, max_items=25)
    task = random_task(rng)
    config = SimulatorConfig()
    wide = {i.id for i in slice_memory(store, task, at_threshold(config, lo), embedder).items}
    narrow = {i.id for i in slice_memory(store, task, at_threshold(config, hi), embedder).items}
    assert narrow <= wide


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), age_bump=st.integers(0, 50))
def test_temporal_monotonicity(seed, age_bump):
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    task = random_task(rng)
    item = make_item("m", MemoryTier.EPISODIC, "parser json cache", embedder, created_at_step=0)
    now = rng.randint(0, 20)
    config = SimulatorConfig()
    r_young = compute_relevance(item, task, config, now, embedder)
    r_old = compute_relevance(item, task, config, now + age_bump, embedder)
    assert r_old <= r_young + 1e-12


# The per-item scorer as it stood before the task-side terms were hoisted
# out of the slice loop, transcribed literally (with the tokenizer and
# cosine it called). It scores every item from scratch, so it is an
# oracle that does not share code with ``compute_relevance``.
def _reference_tokenize(text):
    return [t for t in re.findall(r"[a-z0-9]+", text.lower()) if len(t) >= 2]


def _reference_cosine(a, b):
    dot = sum(map(operator.mul, a, b))
    na = math.sqrt(sum(map(operator.mul, a, a)))
    nb = math.sqrt(sum(map(operator.mul, b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def _reference_relevance(item, keywords, refs, task_embedding, config, now_step):
    item_tokens = set(_reference_tokenize(item.content))
    keyword_match = len(keywords & item_tokens) / len(keywords) if keywords else 0.0
    dep_score = len(refs & item.references) / len(refs) if refs else 0.0
    temporal = math.exp(-config.lambda_decay * (now_step - item.created_at_step))
    semantic = max(0.0, _reference_cosine(item.embedding, task_embedding))
    return (
        config.alpha * keyword_match
        + config.beta * dep_score
        + config.gamma * temporal
        + config.delta * semantic
    )


# Stopwords, one-letter tokens and punctuation, so items and tasks hit
# the tokenizer's edge cases.
_NOISE = ["the", "and", "of", "x", "7", "a1", "json,", "(parser)", "src/a.py", "B-tree"]


@settings(max_examples=80, deadline=None)
@example(seed=0, now=0, stopword_task=False, with_refs=True)
@example(seed=1, now=10 ** 5, stopword_task=True, with_refs=False)
@example(seed=2, now=40, stopword_task=True, with_refs=True)
@example(seed=3, now=7, stopword_task=False, with_refs=False)
@given(
    seed=st.integers(0, 10 ** 6),
    now=st.sampled_from([0, 1, 7, 40, 10 ** 5]),
    stopword_task=st.booleans(),
    with_refs=st.booleans(),
)
def test_relevance_is_bit_identical_to_per_item_reference(seed, now, stopword_task, with_refs):
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    raw = [rng.random() for _ in range(4)]
    total = sum(raw) or 1.0
    config = SimulatorConfig(
        alpha=raw[0] / total, beta=raw[1] / total, gamma=raw[2] / total,
        delta=1.0 - (raw[0] + raw[1] + raw[2]) / total, lambda_decay=rng.choice([0.001, 0.1, 0.7, 5.0]),
    )
    store = MemoryStore(DIM, current_step=now)
    # Always one empty item (zero embedding), one of age 0 and one of the largest age.
    contents = ["", "parser json cache", "schema header"]
    steps = [rng.randint(0, now), now, 0]
    for _ in range(rng.randint(0, 30)):
        contents.append(" ".join(rng.choices(WORDS + _NOISE, k=rng.randint(0, 10))))
        steps.append(rng.choice([0, now, rng.randint(0, now)]))
    for i, (content, step) in enumerate(zip(contents, steps)):
        store.add(
            make_item(
                f"m{i}", rng.choice(list(MemoryTier)), content, embedder,
                referenced_files=rng.sample(FILES, rng.randint(0, 2)),
                referenced_symbols=rng.sample(SYMBOLS, rng.randint(0, 2)),
                created_at_step=step,
            )
        )
    if stopword_task:
        description = " ".join(rng.choices(["the", "and", "of", "to", "a", "x"], k=rng.randint(1, 5)))
    else:
        words = rng.choices(WORDS + _NOISE[:6], k=rng.randint(0, 7)) + [rng.choice(WORDS)]
        description = " ".join(rng.sample(words, len(words)))
    task = TaskSpec(
        description=description,
        referenced_files=frozenset(rng.sample(FILES, rng.randint(1, 3))) if with_refs else frozenset(),
        referenced_symbols=frozenset(rng.sample(SYMBOLS, rng.randint(0, 2))) if with_refs else frozenset(),
    )
    keywords = extract_keywords(task.description)
    refs = task_references(task)
    assert (not keywords) == stopword_task
    assert (not refs) == (not with_refs)
    task_embedding = embedder(task.description)
    expected = {
        item.id: _reference_relevance(item, keywords, refs, task_embedding, config, now)
        for item in store.items()
    }
    for item in store.items():
        assert compute_relevance(item, task, config, now, embedder) == expected[item.id]
    for threshold in (0.0, 0.25, 0.5, rng.random()):
        sliced = slice_memory(store, task, at_threshold(config, threshold), embedder)
        assert [i.id for i in sliced.items] == [
            i.id for i in store.items() if expected[i.id] > threshold
        ]


def test_store_version_moves_exactly_when_content_changes(embedder):
    store = MemoryStore(DIM, current_step=3)
    assert store.version == 0
    store.add(make_item("a", MemoryTier.EPISODIC, "one", embedder, created_at_step=1))
    assert store.version == 1
    store.advance_to(3)
    assert store.version == 1
    store.advance_to(4)
    assert store.version == 2
    with pytest.raises(MemoryError):
        store.advance_to(2)
    with pytest.raises(MemoryError):
        store.add(make_item("a", MemoryTier.WORKING, "again", embedder))
    assert store.version == 2 and store.current_step == 4


def test_store_step_version_and_token_count_are_read_only():
    store = MemoryStore(DIM)
    for name in ("current_step", "version", "token_count"):
        with pytest.raises(AttributeError):
            setattr(store, name, 5)
    assert (store.current_step, store.version, store.token_count) == (0, 0, 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), ops=st.lists(st.sampled_from(["add", "same", "later"]), max_size=12))
def test_version_unchanged_exactly_when_digest_unchanged(seed, ops):
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    store = random_store(rng, embedder, max_items=5)
    for k, op in enumerate(ops):
        version, digest = store.version, store.content_digest()
        if op == "add":
            store.add(make_item(f"op-{k}", rng.choice(list(MemoryTier)), rng.choice(WORDS), embedder))
        else:
            store.advance_to(store.current_step + (op == "later"))
        assert (store.version == version) == (store.content_digest() == digest)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_running_token_count_matches_recount(seed):
    rng = random.Random(seed)
    embedder = DefaultEmbedder(DIM)
    store = random_store(rng, embedder, max_items=20)
    store.add(make_item("spaced", MemoryTier.WORKING, "  two\twords \n", embedder))
    store.add(make_item("blank", MemoryTier.EPISODIC, "   ", embedder))
    assert store.token_count == count_tokens(store.items())
    copy = snapshot_store(store)
    assert copy.token_count == store.token_count
    copy.add(make_item("more", MemoryTier.SEMANTIC, " ".join(rng.choices(WORDS, k=5)), embedder))
    assert copy.token_count == count_tokens(copy.items()) == store.token_count + 5
    assert store.token_count == count_tokens(store.items())


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(memory, name)

    def counted(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(memory, name, counted)
    return calls


def test_store_analyses_each_distinct_content_and_tuple_once(monkeypatch):
    """A store built from N items over k distinct (content, embedding
    tuple) pairs extracts keywords and takes a norm k times, and an add
    that repeats a pair does neither."""
    rng = random.Random(11)
    contents = ["parser json", "  cache\theader ", "", "parser json cache"]
    tuples = [tuple(rng.uniform(-1, 1) for _ in range(DIM)) for _ in range(3)]
    # Every content with every tuple, so each tuple follows other tuples
    # under more than one content.
    pairs = [(c, t) for c in contents for t in tuples]
    items = [
        MemoryItem(id=f"m{n}", tier=rng.choice(list(MemoryTier)), content=content, embedding=embedding)
        for n, (content, embedding) in enumerate(rng.choices(pairs, k=60) + pairs)
    ]
    keyword_calls = _count_calls(monkeypatch, "extract_keywords")
    norm_calls = _count_calls(monkeypatch, "norm")
    store = MemoryStore(DIM, 0, items)
    assert len(store) == len(items)
    assert len(keyword_calls) == len(norm_calls) == len(pairs)
    assert store.token_count == count_tokens(store.items())
    store.add(MemoryItem(id="again", tier=MemoryTier.WORKING, content=contents[0], embedding=tuples[0]))
    assert len(keyword_calls) == len(norm_calls) == len(pairs)
    store.add(MemoryItem(id="equal", tier=MemoryTier.WORKING, content=contents[0], embedding=tuple(list(tuples[0]))))
    assert len(keyword_calls) == len(norm_calls) == len(pairs) + 1
    assert store.token_count == count_tokens(store.items())


def test_rejected_add_leaves_the_store_unchanged(embedder):
    store = MemoryStore(DIM, current_step=2)
    store.add(make_item("a", MemoryTier.EPISODIC, "parser json", embedder, created_at_step=1))
    task = TaskSpec(description="fix the json cache", referenced_files=frozenset({"src/a.py"}))
    cuts = (0.0, 0.3, 0.5)

    def state():
        slices = [slice_memory(store, task, at_threshold(SimulatorConfig(), cut), embedder).items for cut in cuts]
        return len(store), store.version, store.token_count, slices

    before = state()
    rejected = [
        make_item("a", MemoryTier.WORKING, "json cache", embedder, referenced_files=["src/a.py"]),
        MemoryItem(id="b", tier=MemoryTier.WORKING, content="json cache", embedding=(1e-300,) * (DIM + 1)),
        make_item("b", MemoryTier.WORKING, "json cache", embedder, referenced_files=["src/a.py"], created_at_step=3),
    ]
    for item in rejected:
        with pytest.raises(MemoryError):
            store.add(item)
        assert state() == before
    with pytest.raises(MemoryError):
        MemoryStore(DIM, 2, [tier_items(store, MemoryTier.EPISODIC)[0], *rejected])
    store.add(make_item("b", MemoryTier.WORKING, "json cache", embedder, referenced_files=["src/a.py"]))
    assert len(store) == 2 and store.version == before[1] + 1
    assert store.token_count == before[2] + 2
    assert [i.id for i in slice_memory(store, task, at_threshold(SimulatorConfig(), 0.5), embedder).items] == ["b"]


# Finite components of both signs, zeros of both signs, and values whose
# squares underflow, so norms can be zero while components are not.
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-200, -1e-200]),
    st.floats(-1e3, 1e3),
)
_PDIM = 4
_VECTOR = st.lists(_COMPONENT, min_size=_PDIM, max_size=_PDIM).map(tuple)
_TASK_VECTOR = st.one_of(
    st.just((0.0,) * _PDIM),
    st.tuples(st.integers(0, _PDIM - 1), _COMPONENT.filter(bool)).map(
        lambda pair: tuple(pair[1] if i == pair[0] else 0.0 for i in range(_PDIM))
    ),
    _VECTOR,
)
_CONTENT = st.lists(st.sampled_from(WORDS[:6] + _NOISE), max_size=6).map(" ".join)
_REFS = st.lists(st.sampled_from(FILES + SYMBOLS), max_size=3)
# The default split (gamma + delta = 0.4), gamma + delta = 1 (no cut
# can prune), alpha = 0, beta = 0, delta = 0, and splits drawn freely.
_CONFIGS = st.one_of(
    st.sampled_from(
        [
            SimulatorConfig(),
            SimulatorConfig(alpha=0.3, beta=0.2, gamma=0.1, delta=0.4, lambda_decay=0.3),
            SimulatorConfig(alpha=0.0, beta=0.0, gamma=0.5, delta=0.5),
            SimulatorConfig(alpha=0.0, beta=0.6, gamma=0.2, delta=0.2),
            SimulatorConfig(alpha=0.6, beta=0.0, gamma=0.3, delta=0.1),
            SimulatorConfig(alpha=0.4, beta=0.3, gamma=0.3, delta=0.0),
        ]
    ),
    st.builds(
        lambda a, b, c, d, decay: SimulatorConfig(
            alpha=a / (a + b + c + d), beta=b / (a + b + c + d), gamma=c / (a + b + c + d),
            delta=max(0.0, 1.0 - (a + b + c) / (a + b + c + d)), lambda_decay=decay,
        ),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.01, 1.0),
        st.sampled_from([0.001, 0.3, 5.0]),
    ),
)
# A parallel embedding whose cosine rounds above 1: 3 / (sqrt(3) * sqrt(3))
# is 1.0000000000000002.
_PARALLEL = (1.0, 1.0, 1.0, 0.0)
# Two embeddings whose squares and products fall among the subnormals,
# where rounding carries their cosine to 1.5.
_TINY = math.sqrt(5e-324)
_SUBNORMAL_ITEM = (0.7 * _TINY, 0.7 * _TINY, _TINY, 0.0)
_SUBNORMAL_TASK = (0.72 * _TINY, 0.72 * _TINY, _TINY, 0.0)
# An added item's embedding is a tuple of the test's pool, picked by index
# (modulo the pool's size), either that very tuple object or, with the
# flag, a distinct tuple of equal value. So one tuple object appears with
# different contents, and one content with different tuple objects.
_POOL = st.lists(st.one_of(st.just((0.0,) * _PDIM), _VECTOR), min_size=1, max_size=3)
_EMBEDDING = st.tuples(st.integers(0, 2), st.booleans())
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.sampled_from(list(MemoryTier)),
            st.one_of(st.sampled_from(["", "  ", " \t\n", "parser json", "cache"]), _CONTENT),
            _REFS, _REFS, _EMBEDDING, st.integers(0, 3),
        ),
        st.tuples(st.just("advance"), st.integers(0, 3)),
        st.tuples(st.just("snapshot")),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@example(
    ops=[], pool=[_PARALLEL], description="parser", task_vector=(0.0,) * _PDIM, task_refs=[], threshold=0.0,
    config=SimulatorConfig(alpha=0.3, beta=0.2, gamma=0.1, delta=0.4, lambda_decay=0.3),
)
@example(
    ops=[("add", MemoryTier.EPISODIC, "cache", [], [], (0, False), 0)], pool=[_PARALLEL], description="parser",
    task_vector=_PARALLEL, task_refs=[], threshold=0.4, config=SimulatorConfig(),
)
@example(
    ops=[("add", MemoryTier.SEMANTIC, "cache", [], [], (0, False), 0)], pool=[_SUBNORMAL_ITEM],
    description="parser", task_vector=_SUBNORMAL_TASK, task_refs=[], threshold=0.45, config=SimulatorConfig(),
)
# One tuple object with two contents, across tiers and a snapshot.
@example(
    ops=[
        ("add", MemoryTier.EPISODIC, "parser json", [], [], (0, False), 0),
        ("add", MemoryTier.WORKING, "cache", [], [], (0, False), 1),
        ("snapshot",),
        ("add", MemoryTier.EPISODIC, "parser", [], [], (0, False), 0),
    ],
    pool=[(1.0, 0.0, -0.5, 0.0)], description="parser json", task_vector=(1.0, 0.0, 0.0, 0.0), task_refs=[],
    threshold=0.5, config=SimulatorConfig(),
)
# One content with two tuple objects of different values, one off scale.
@example(
    ops=[
        ("add", MemoryTier.SEMANTIC, "parser json", [], [], (0, False), 0),
        ("add", MemoryTier.SEMANTIC, "parser json", ["src/a.py"], [], (1, False), 0),
        ("snapshot",),
        ("add", MemoryTier.WORKING, "parser json", [], [], (1, False), 2),
    ],
    pool=[(1.0, 0.0, 0.0, 0.0), _SUBNORMAL_ITEM], description="parser", task_vector=(1.0, 1.0, 0.0, 0.0),
    task_refs=["src/a.py"], threshold=0.45, config=SimulatorConfig(),
)
# One content with two distinct tuples of equal value.
@example(
    ops=[
        ("add", MemoryTier.WORKING, "cache", [], [], (0, False), 0),
        ("add", MemoryTier.EPISODIC, "cache", [], [], (0, True), 3),
        ("snapshot",),
        ("add", MemoryTier.EPISODIC, "cache", [], [], (0, True), 1),
    ],
    pool=[(0.0, 2.0, 0.0, 1.0)], description="cache", task_vector=(0.0, 1.0, 0.0, 0.0), task_refs=[],
    threshold=0.3, config=SimulatorConfig(),
)
@given(
    ops=_OPS,
    pool=_POOL,
    description=_CONTENT.filter(bool),
    task_vector=_TASK_VECTOR,
    task_refs=_REFS,
    threshold=st.floats(0.0, 1.0),
    config=_CONFIGS,
)
def test_indexed_slice_keeps_what_the_per_item_reference_keeps(
    ops, pool, description, task_vector, task_refs, threshold, config
):
    """Every store an add/advance_to/snapshot_store sequence passes
    through slices exactly as the literal reference scores it, with a
    custom embedder whose vectors have negative and zero components, at
    cuts on both sides of gamma + delta, above which the slice scores
    only the items its postings reach, and each slice's word count is a
    recount of its items. Items share embedding tuples and contents in
    every combination, so the store's groups of items with one content
    and one tuple are exercised; contents may be empty or whitespace
    only, and embeddings zero."""
    embedder = _FixedEmbedder(task_vector)
    task = TaskSpec(
        description=description,
        referenced_files=frozenset(r for r in task_refs if r in FILES),
        referenced_symbols=frozenset(r for r in task_refs if r in SYMBOLS),
    )
    keywords = extract_keywords(task.description)
    refs = task_references(task)
    store = MemoryStore(_PDIM, current_step=2)
    stores = [store]
    for n, op in enumerate(ops):
        if op[0] == "add":
            _, tier, content, files, symbols, (index, copy), age = op
            embedding = pool[index % len(pool)]
            if copy:
                embedding = tuple(list(embedding))
            store.add(
                MemoryItem(
                    id=f"m{n}", tier=tier, content=content, referenced_files=files,
                    referenced_symbols=symbols, embedding=embedding,
                    created_at_step=max(0, store.current_step - age),
                )
            )
        elif op[0] == "advance":
            store.advance_to(store.current_step + op[1])
        else:
            store = snapshot_store(store)
            stores.append(store)
    for store in stores:
        now = store.current_step
        expected = {
            item.id: _reference_relevance(item, keywords, refs, task_vector, config, now)
            for item in store.items()
        }
        for item in store.items():
            assert compute_relevance(item, task, config, now, embedder) == expected[item.id]
        bound = min(1.0, config.gamma + config.delta)
        for cut in (0.0, 0.25, 0.5, bound, math.nextafter(bound, 1.0), 1.0, threshold):
            sliced = slice_memory(store, task, at_threshold(config, cut), embedder)
            assert [i.id for i in sliced.items] == [i.id for i in store.items() if expected[i.id] > cut]
            assert sliced.tokens == count_tokens(sliced.items)


def _reference_embed(text, dim):
    """``default_embed`` as it stood before it shared its floats."""
    buckets = [0.0] * dim
    for token in _reference_tokenize(text):
        buckets[int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big") % dim] += 1.0
    norm = math.sqrt(sum(map(operator.mul, buckets, buckets)))
    if norm == 0.0:
        return tuple(buckets)
    return tuple(v / norm for v in buckets)


@pytest.mark.parametrize("dim", [1, 2, 64, 4096])
def test_default_embed_is_bit_identical_and_shares_equal_floats(dim):
    rng = random.Random(dim)
    texts = ["", "!!", "parser", "parser parser json", " ".join(WORDS * 3)]
    texts += [" ".join(rng.choices(WORDS + _NOISE, k=rng.randint(1, 40))) for _ in range(20)]
    for text in texts:
        got = default_embed(text, dim)
        expected = _reference_embed(text, dim)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in expected]
        assert len({id(v) for v in got}) == len(set(got))


def test_bucket_memo_is_bounded_and_embeds_the_same_after_it_starts_over(monkeypatch):
    monkeypatch.setattr(memory, "BUCKET_MEMO", 3)
    text = " ".join(WORDS)
    for dim in (8, 16, 8):
        assert default_embed(text, dim) == _reference_embed(text, dim)
        assert len(memory._buckets_of(dim)) <= 3


def test_default_embedder_memo_is_per_instance_and_bounded():
    small, large, other = DefaultEmbedder(8), DefaultEmbedder(16), DefaultEmbedder(8)
    for first, second in ((small, large), (large, small)):
        for text in ("parser json", "cache header"):
            first(text)
            assert len(second(text)) == second.dim
            assert first(text) == default_embed(text, first.dim)
    assert other._memo == {}
    for n in range(EMBED_MEMO + 10):
        small(f"text {n}")
        assert len(small._memo) <= EMBED_MEMO
    assert small("text 3") == default_embed("text 3", 8)
