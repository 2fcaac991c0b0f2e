"""Skill templates: inheritance by relevance, promotion.

A skill is a prompt template with named ``{placeholder}`` slots and a
binding map. Children inherit the subset of the parent's library whose
template is similar enough to the child task, with their bindings as
the library holds them, and may hand back newly learned skills that get
promoted into the parent's library when their success statistic clears
a bar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence, TYPE_CHECKING

from .memory import Embedder, MemoryError, clamped_cosine, dot_with, norm

if TYPE_CHECKING:
    from .protocol import TaskSpec

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


class SkillError(ValueError):
    pass


class Provenance(str, Enum):
    BUILT_IN = "built-in"
    INHERITED = "inherited"
    LEARNED = "learned"


@dataclass(frozen=True)
class Skill:
    id: str
    template: str
    params: tuple[tuple[str, str], ...] = ()
    provenance: Provenance = Provenance.BUILT_IN
    success_stat: float | None = None

    def __post_init__(self):
        if not self.id:
            raise SkillError("skill id must be nonempty")
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params", tuple(sorted(self.params)))
        if not isinstance(self.provenance, Provenance):
            object.__setattr__(self, "provenance", Provenance(self.provenance))
        holders = self.placeholders()
        previous = None
        for name, _ in self.params:
            if name not in holders:
                raise SkillError(f"skill {self.id}: param {name!r} has no placeholder in template")
            if name == previous:
                raise SkillError(f"skill {self.id}: param {name!r} is bound twice")
            previous = name
        if self.success_stat is not None:
            if self.provenance is not Provenance.LEARNED:
                raise SkillError(f"skill {self.id}: success_stat only allowed on learned skills")
            if not 0.0 <= self.success_stat <= 1.0:
                raise SkillError(f"skill {self.id}: success_stat must be in [0, 1]")
            object.__setattr__(self, "success_stat", float(self.success_stat))

    def placeholders(self) -> frozenset[str]:
        return frozenset(_PLACEHOLDER_RE.findall(self.template))


class SkillLibrary:
    """Per-agent skill collection. Single-writer, unique ids.

    The library only appends and skills are frozen, so each skill's
    inherited copy is built once, on its first selection, and handed
    out again on every later one.
    """

    def __init__(self, skills: Iterable[Skill] = (), inherit_threshold: float = 0.5):
        if not 0.0 <= inherit_threshold <= 1.0:
            raise SkillError("inherit_threshold must be in [0, 1]")
        self.inherit_threshold = inherit_threshold
        self._skills: list[Skill] = []
        self._ids: set[str] = set()
        self._inherited: dict[str, Skill] = {}
        self._next_suffix: dict[str, int] = {}
        for s in skills:
            self.add(s)

    def add(self, skill: Skill) -> None:
        if skill.id in self._ids:
            raise SkillError(f"duplicate skill id {skill.id!r}")
        self._skills.append(skill)
        self._ids.add(skill.id)

    def _derived_id(self, base: str) -> str:
        """The first ``f"{base}.{n}"`` with n >= 2 that no skill holds.

        The library only appends, so a suffix found taken stays taken,
        and each search for ``base`` resumes at the last one it returned.
        """
        n = self._next_suffix.get(base, 2)
        while f"{base}.{n}" in self._ids:
            n += 1
        self._next_suffix[base] = n
        return f"{base}.{n}"

    def skills(self) -> tuple[Skill, ...]:
        return tuple(self._skills)

    def _inherited_copy(self, skill: Skill) -> Skill:
        """``skill``, one of the library's, marked inherited and without
        a success statistic."""
        copy = self._inherited.get(skill.id)
        if copy is None:
            copy = replace(skill, provenance=Provenance.INHERITED, success_stat=None)
            self._inherited[skill.id] = copy
        return copy

    def __len__(self) -> int:
        return len(self._skills)

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._ids


def _task_similarity(task_embedding: Sequence[float]) -> Callable[[Sequence[float]], float]:
    """``similarity(template_embedding)``: the :func:`clamped_cosine` of
    a template's embedding with the task's, in [0, 1].

    The task's norm and nonzero components are taken once: a finite
    template gets the same dot product from :func:`dot_with` as over
    every component, and a non-finite one has an infinite or NaN norm,
    so it clamps to 0.
    """
    dot = dot_with(task_embedding)
    task_norm = norm(task_embedding)

    def similarity(template_embedding: Sequence[float]) -> float:
        if len(template_embedding) != len(task_embedding):
            raise MemoryError(f"vector dim mismatch: {len(template_embedding)} vs {len(task_embedding)}")
        return clamped_cosine(dot(template_embedding), norm(template_embedding), task_norm)

    return similarity


def select_inherited_skills(
    library: SkillLibrary, task: "TaskSpec", embedder: Embedder
) -> list[Skill]:
    """Copies of library skills whose relevance strictly exceeds the
    library's inherit threshold, in library order, marked inherited.

    The task is embedded once per call, and each distinct template is
    embedded and scored once per call, in order of first appearance;
    skills that share a template share its verdict. That gives the same
    skills as scoring every skill because the embedder is a function of
    its text, as the workload loader also assumes of memory contents.
    Each skill's copy is built once per library."""
    similarity = _task_similarity(embedder(task.description))
    skills = library.skills()
    passes = {
        template: similarity(embedder(template)) > library.inherit_threshold
        for template in dict.fromkeys(skill.template for skill in skills)
    }
    return [library._inherited_copy(skill) for skill in skills if passes[skill.template]]


def promote_skills(
    library: SkillLibrary, learned: Iterable[Skill], promote_threshold: float = 0.8
) -> None:
    """Append learned skills whose success_stat clears the threshold.

    A skill colliding with an existing id gets ``f"{id}.{n}"`` with the
    smallest n >= 2 that no skill holds. Skills missing a success_stat
    are skipped rather than promoted on faith. Pre-existing skills are
    never touched.
    """
    for skill in learned:
        if skill.success_stat is None or skill.success_stat < promote_threshold:
            continue
        new_id = library._derived_id(skill.id) if skill.id in library else skill.id
        library.add(replace(skill, id=new_id))
