from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentfork.memory import DefaultEmbedder, MemoryError, default_embed
from agentfork.protocol import TaskSpec
from agentfork.skills import (
    Provenance,
    Skill,
    SkillError,
    SkillLibrary,
    promote_skills,
    select_inherited_skills,
)

from conftest import DIM, WORDS, cosine, random_skill, random_task, skill_relevance


def test_skill_relevance_identical_text_is_one(embedder):
    skill = Skill(id="s", template="write unit tests for the parser")
    task = TaskSpec(description="write unit tests for the parser")
    assert skill_relevance(skill, task, embedder) == pytest.approx(1.0)


def test_skill_relevance_deterministic(embedder):
    skill = Skill(id="s", template="refactor the scanner module")
    task = TaskSpec(description="tidy the tokenizer")
    first = skill_relevance(skill, task, embedder)
    assert skill_relevance(skill, task, embedder) == first
    assert 0.0 <= first <= 1.0


def test_select_inherited_empty_library(embedder):
    library = SkillLibrary()
    assert select_inherited_skills(library, random_task(random.Random(0)), embedder) == []


def test_select_inherited_threshold_zero_takes_everything(embedder):
    task = TaskSpec(description="parser json fix")
    skills = [
        Skill(id="a", template="fix the parser"),
        Skill(id="b", template="adjust json handling"),
    ]
    library = SkillLibrary(skills, inherit_threshold=0.0)
    chosen = select_inherited_skills(library, task, embedder)
    assert [s.id for s in chosen] == ["a", "b"]
    assert all(s.provenance is Provenance.INHERITED for s in chosen)


def test_select_inherited_matches_brute_force_filter(embedder):
    """Skills draw their templates from a small pool, so most libraries
    hold skills that share a template and must share its verdict."""
    rng = random.Random(11)
    shared = partial = 0
    for _ in range(60):
        pool = [
            " ".join(rng.choices(WORDS, k=rng.randint(1, 6))) + rng.choice(["", " {slot}"])
            for _ in range(3)
        ]
        library = SkillLibrary(
            [Skill(id=f"s{n}", template=rng.choice(pool)) for n in range(rng.randint(0, 8))],
            inherit_threshold=rng.random(),
        )
        task = random_task(rng)
        chosen = select_inherited_skills(library, task, embedder)
        oracle = [
            s.id
            for s in library.skills()
            if skill_relevance(s, task, embedder) > library.inherit_threshold
        ]
        assert [s.id for s in chosen] == oracle
        shared += len({s.template for s in library.skills()}) < len(library)
        partial += 0 < len(chosen) < len(library)
    assert shared > 20 and partial > 5


def test_select_inherited_leaves_library_untouched(embedder):
    library = SkillLibrary([Skill(id="a", template="fix the parser")])
    task = TaskSpec(description="fix the parser")
    chosen = select_inherited_skills(library, task, embedder)
    assert chosen and chosen[0] is not library.skills()[0]
    assert library.skills()[0].provenance is Provenance.BUILT_IN


def test_inherited_copies_are_built_once_per_library(embedder, monkeypatch):
    rng = random.Random(3)
    task = random_task(rng)
    skills = [
        Skill(
            id=f"s{n}",
            template=f"{task.description} {rng.choice(WORDS)} {{slot}}",
            params={"slot": rng.choice(WORDS)} if n % 2 else {},
            provenance=Provenance.LEARNED if n % 3 else Provenance.BUILT_IN,
            success_stat=0.9 if n % 3 else None,
        )
        for n in range(10)
    ]
    library = SkillLibrary(skills, inherit_threshold=0.0)
    validated = []
    post_init = Skill.__post_init__

    def counting(skill):
        validated.append(skill.id)
        post_init(skill)

    monkeypatch.setattr(Skill, "__post_init__", counting)
    first = select_inherited_skills(library, task, embedder)
    assert len(validated) == len(first) > 0
    second = select_inherited_skills(library, task, embedder)
    assert len(validated) == len(first)
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert first == [Skill(s.id, s.template, s.params, Provenance.INHERITED) for s in skills]
    other = select_inherited_skills(SkillLibrary(skills, inherit_threshold=0.0), task, embedder)
    assert other == first and all(a is not b for a, b in zip(first, other))


class _CountingEmbedder:
    """Not a DefaultEmbedder: it memoizes nothing and counts each text."""

    def __init__(self):
        self.dim = DIM
        self.calls = {}

    def __call__(self, text):
        self.calls[text] = self.calls.get(text, 0) + 1
        return default_embed(text, self.dim)


@pytest.mark.parametrize("templates", [12, 3], ids=["distinct_templates", "repeated_templates"])
def test_custom_embedder_embeds_each_distinct_template_once_per_selection(templates):
    rng = random.Random(5)
    pool = [" ".join(rng.choices(WORDS, k=4)) + f" n{n}" for n in range(templates)]
    skills = [Skill(id=f"s{n}", template=pool[n % templates]) for n in range(12)]
    library = SkillLibrary(skills, inherit_threshold=0.2)
    task = random_task(rng)
    embedder = _CountingEmbedder()
    first = select_inherited_skills(library, task, embedder)
    second = select_inherited_skills(library, task, embedder)
    assert first == second == select_inherited_skills(library, task, DefaultEmbedder(DIM))
    assert embedder.calls == {task.description: 2, **{template: 2 for template in pool}}


class _TableEmbedder:
    def __init__(self, table):
        self.table = table

    def __call__(self, text):
        return self.table[text]


_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-200, 1e308, math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, deadline=None)
@given(
    template=st.lists(_COMPONENT, min_size=3, max_size=3),
    task=st.lists(_COMPONENT, min_size=3, max_size=3),
)
def test_skill_relevance_is_bit_identical_to_clamped_cosine(template, task):
    """Non-finite components included: the clamp maps every NaN the full
    dot product would give to 0, as it does the shortened one's."""
    embedder = _TableEmbedder({"template": tuple(template), "task": tuple(task)})
    expected = min(1.0, max(0.0, cosine(template, task)))
    got = skill_relevance(Skill(id="s", template="template"), TaskSpec(description="task"), embedder)
    assert struct.pack("<d", got) == struct.pack("<d", expected)


def test_skill_relevance_rejects_a_dimension_mismatch():
    embedder = _TableEmbedder({"template": (1.0, 0.0), "task": (1.0, 0.0, 0.0)})
    with pytest.raises(MemoryError):
        skill_relevance(Skill(id="s", template="template"), TaskSpec(description="task"), embedder)


def test_skill_params_must_have_placeholders():
    with pytest.raises(SkillError):
        Skill(id="bad", template="no slots here", params=(("ghost", "x"),))


def test_skill_rejects_a_param_bound_twice():
    # A package keeps one binding per name, so the second one would be lost.
    with pytest.raises(SkillError, match="bound twice"):
        Skill(id="x", template="{a}", params=(("a", "1"), ("a", "2")), provenance="learned")


def test_success_stat_only_for_learned():
    with pytest.raises(SkillError):
        Skill(id="bad", template="t", success_stat=0.5)
    Skill(id="ok", template="t", provenance=Provenance.LEARNED, success_stat=0.5)


def test_promote_above_threshold():
    library = SkillLibrary()
    learned = Skill(id="new", template="t", provenance=Provenance.LEARNED, success_stat=0.9)
    assert promote_skills(library, [learned], promote_threshold=0.8) is None
    assert library.skills() == (learned,)


def test_promote_below_threshold_dropped():
    library = SkillLibrary()
    learned = Skill(id="new", template="t", provenance=Provenance.LEARNED, success_stat=0.5)
    promote_skills(library, [learned], promote_threshold=0.8)
    assert "new" not in library
    assert len(library) == 0


def test_promote_empty_list_changes_nothing():
    library = SkillLibrary([Skill(id="keep", template="t")])
    before = library.skills()
    promote_skills(library, [], promote_threshold=0.8)
    assert library.skills() == before


def test_promote_missing_stat_skips():
    library = SkillLibrary()
    learned = Skill(id="new", template="t", provenance=Provenance.LEARNED)
    promote_skills(library, [learned], promote_threshold=0.0)
    assert "new" not in library
    assert len(library) == 0


def test_promote_renames_on_id_collision():
    existing = Skill(id="dup", template="t")
    library = SkillLibrary([existing])
    learned = Skill(id="dup", template="u", provenance=Provenance.LEARNED, success_stat=1.0)
    promote_skills(library, [learned, learned], promote_threshold=0.5)
    ids = [s.id for s in library.skills()]
    assert ids == ["dup", "dup.2", "dup.3"]
    assert library.skills()[0] == existing


def _reference_promoted_ids(initial, learned):
    """The ids promotion gives ``learned`` (all passing), found by probing
    ``f"{id}.{n}"`` from n = 2 on every collision, as promotion once did."""
    taken = set(initial)
    ids = []
    for skill_id in learned:
        new_id = skill_id
        if new_id in taken:
            n = 2
            while f"{skill_id}.{n}" in taken:
                n += 1
            new_id = f"{skill_id}.{n}"
        taken.add(new_id)
        ids.append(new_id)
    return ids


# Base ids and ids already derived from them, so a learned skill can hold
# a suffix the next collision would otherwise be given.
_SKILL_IDS = st.sampled_from(["x", "x.2", "x.3", "x.5", "x.2.2", "y", "y.2"])


@settings(max_examples=100, deadline=None)
@example(initial=["x"], learned=["x.3", "x", "x", "x", "x.3"])
@example(initial=["x", "x.2", "x.3"], learned=["x", "x.2", "x", "x.2"])
@given(initial=st.lists(_SKILL_IDS, unique=True, max_size=4), learned=st.lists(_SKILL_IDS, max_size=12))
def test_promotion_ids_match_the_probing_reference(initial, learned):
    library = SkillLibrary([Skill(id=skill_id, template="t") for skill_id in initial])
    skills = [Skill(id=skill_id, template="u", provenance=Provenance.LEARNED, success_stat=1.0) for skill_id in learned]
    promote_skills(library, skills[: len(skills) // 2], promote_threshold=0.5)
    promote_skills(library, skills[len(skills) // 2 :], promote_threshold=0.5)
    assert [s.id for s in library.skills()] == initial + _reference_promoted_ids(initial, learned)


class _CountingSet(set):
    lookups = 0

    def __contains__(self, value):
        self.lookups += 1
        return super().__contains__(value)


def test_promoting_one_id_k_times_looks_up_ids_linearly():
    library = SkillLibrary([Skill(id="dup", template="t")])
    library._ids = _CountingSet(library._ids)
    learned = Skill(id="dup", template="u", provenance=Provenance.LEARNED, success_stat=1.0)
    k = 60
    for _ in range(k):
        promote_skills(library, [learned], promote_threshold=0.5)
    assert [s.id for s in library.skills()][-1] == f"dup.{k + 1}"
    assert library._ids.lookups <= 4 * k


def test_promote_grows_by_exactly_promoted_count():
    rng = random.Random(5)
    for _ in range(20):
        library = SkillLibrary([random_skill(rng) for _ in range(rng.randint(0, 4))])
        before = len(library)
        learned = [random_skill(rng, learned=True) for _ in range(rng.randint(0, 5))]
        threshold = rng.random()
        passing = [s for s in learned if s.success_stat >= threshold]
        promote_skills(library, learned, threshold)
        assert len(library) == before + len(passing)
        added = library.skills()[before:]
        assert [(s.template, s.success_stat) for s in added] == [(s.template, s.success_stat) for s in passing]
