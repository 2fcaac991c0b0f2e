from __future__ import annotations

import random

import pytest

from agentfork.protocol import TaskSpec
from agentfork.skills import (
    Provenance,
    Skill,
    SkillError,
    SkillLibrary,
    promote_skills,
    select_inherited_skills,
    skill_relevance,
    specialize,
)

from conftest import random_skill, random_task


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
    rng = random.Random(11)
    for _ in range(20):
        library = SkillLibrary(
            [random_skill(rng) for _ in range(rng.randint(0, 8))],
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


def test_select_inherited_leaves_library_untouched(embedder):
    library = SkillLibrary([Skill(id="a", template="fix the parser")])
    task = TaskSpec(description="fix the parser")
    chosen = select_inherited_skills(library, task, embedder)
    assert chosen and chosen[0] is not library.skills()[0]
    assert library.skills()[0].provenance is Provenance.BUILT_IN


def test_specialize_binds_matching_placeholders():
    skill = Skill(id="t", template="Write unit tests for {function}")
    bound = specialize(skill, {"function": "validate"})
    assert bound.bound_params() == {"function": "validate"}
    assert bound.unbound_placeholders() == frozenset()


def test_specialize_empty_context_is_identity():
    skill = Skill(id="t", template="Write unit tests for {function}")
    assert specialize(skill, {}) == skill


def test_specialize_ignores_unmatched_context_keys():
    skill = Skill(id="t", template="Review {module} thoroughly")
    bound = specialize(skill, {"function": "validate", "module": "parser"})
    assert bound.bound_params() == {"module": "parser"}


def test_specialize_idempotent_and_keeps_existing_bindings():
    skill = Skill(id="t", template="Check {a} against {b}", params=(("a", "left"),))
    once = specialize(skill, {"b": "right"})
    twice = specialize(once, {"b": "right"})
    assert once == twice
    assert once.bound_params() == {"a": "left", "b": "right"}
    assert once.unbound_placeholders() == frozenset()


def test_specialize_reports_unbound_placeholders():
    skill = Skill(id="t", template="Port {module} to {language}")
    bound = specialize(skill, {"module": "scanner"})
    assert bound.unbound_placeholders() == {"language"}


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
    result = promote_skills(library, [learned], promote_threshold=0.8)
    assert result.promoted == 1 and result.dropped == 0
    assert "new" in library


def test_promote_below_threshold_dropped():
    library = SkillLibrary()
    learned = Skill(id="new", template="t", provenance=Provenance.LEARNED, success_stat=0.5)
    result = promote_skills(library, [learned], promote_threshold=0.8)
    assert result.promoted == 0 and result.dropped == 1
    assert len(library) == 0


def test_promote_empty_list_changes_nothing():
    library = SkillLibrary([Skill(id="keep", template="t")])
    result = promote_skills(library, [], promote_threshold=0.8)
    assert result.promoted == 0
    assert len(library) == 1


def test_promote_missing_stat_warns_and_skips():
    library = SkillLibrary()
    learned = Skill(id="new", template="t", provenance=Provenance.LEARNED)
    result = promote_skills(library, [learned], promote_threshold=0.0)
    assert result.promoted == 0
    assert result.warnings and "new" in result.warnings[0]


def test_promote_renames_on_id_collision():
    existing = Skill(id="dup", template="t")
    library = SkillLibrary([existing])
    learned = Skill(id="dup", template="u", provenance=Provenance.LEARNED, success_stat=1.0)
    promote_skills(library, [learned, learned], promote_threshold=0.5)
    ids = [s.id for s in library.skills()]
    assert ids == ["dup", "dup.2", "dup.3"]
    assert library.skills()[0] == existing


def test_promote_grows_by_exactly_promoted_count():
    rng = random.Random(5)
    for _ in range(20):
        library = SkillLibrary([random_skill(rng) for _ in range(rng.randint(0, 4))])
        before = len(library)
        learned = [random_skill(rng, learned=True) for _ in range(rng.randint(0, 5))]
        threshold = rng.random()
        expected = sum(1 for s in learned if s.success_stat >= threshold)
        result = promote_skills(library, learned, threshold)
        assert result.promoted == expected
        assert len(library) == before + expected
