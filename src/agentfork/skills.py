"""Skill templates: inheritance by relevance, specialization, promotion.

A skill is a prompt template with named ``{placeholder}`` slots and a
binding map. Children inherit the subset of the parent's library whose
template is similar enough to the child task, bind task context into the
slots, and may hand back newly learned skills that get promoted into the
parent's library when their success statistic clears a bar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, TYPE_CHECKING

from .memory import Embedder, cosine

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

    def bound_params(self) -> dict[str, str]:
        return dict(self.params)

    def unbound_placeholders(self) -> frozenset[str]:
        """Placeholders still lacking a binding; reported after specialization."""
        return self.placeholders() - {name for name, _ in self.params}


class SkillLibrary:
    """Per-agent skill collection. Single-writer, unique ids."""

    def __init__(self, skills: Iterable[Skill] = (), inherit_threshold: float = 0.5):
        if not 0.0 <= inherit_threshold <= 1.0:
            raise SkillError("inherit_threshold must be in [0, 1]")
        self.inherit_threshold = inherit_threshold
        self._skills: list[Skill] = []
        self._ids: set[str] = set()
        for s in skills:
            self.add(s)

    def add(self, skill: Skill) -> None:
        if skill.id in self._ids:
            raise SkillError(f"duplicate skill id {skill.id!r}")
        self._skills.append(skill)
        self._ids.add(skill.id)

    def skills(self) -> tuple[Skill, ...]:
        return tuple(self._skills)

    def __len__(self) -> int:
        return len(self._skills)

    def __contains__(self, skill_id: str) -> bool:
        return skill_id in self._ids


def skill_relevance(skill: Skill, task: "TaskSpec", embedder: Embedder) -> float:
    """Embedding similarity between the template and the task, in [0, 1]."""
    sim = cosine(embedder(skill.template), embedder(task.description))
    return min(1.0, max(0.0, sim))


def select_inherited_skills(
    library: SkillLibrary, task: "TaskSpec", embedder: Embedder
) -> list[Skill]:
    """Copies of library skills whose relevance strictly exceeds the
    library's inherit threshold, in library order, marked inherited."""
    chosen = []
    for skill in library.skills():
        if skill_relevance(skill, task, embedder) > library.inherit_threshold:
            chosen.append(
                replace(skill, provenance=Provenance.INHERITED, success_stat=None)
            )
    return chosen


def specialize(skill: Skill, task_context: Mapping[str, str]) -> Skill:
    """Bind task context into matching placeholders.

    Context keys without a matching placeholder are ignored. Existing
    bindings are overwritten only when the context provides the same key;
    unbound placeholders remain visible via ``unbound_placeholders``.
    Idempotent for the same context.
    """
    holders = skill.placeholders()
    merged = skill.bound_params()
    for key, value in task_context.items():
        if key in holders:
            merged[key] = str(value)
    return replace(skill, params=tuple(sorted(merged.items())))


@dataclass
class PromotionResult:
    promoted: int = 0
    dropped: int = 0
    warnings: list[str] = field(default_factory=list)


def promote_skills(
    library: SkillLibrary, learned: Iterable[Skill], promote_threshold: float = 0.8
) -> PromotionResult:
    """Append learned skills whose success_stat clears the threshold.

    Skills colliding with an existing id get a fresh derived id. Skills
    missing a success_stat are skipped with a warning record rather than
    promoted on faith. Pre-existing skills are never touched.
    """
    result = PromotionResult()
    for skill in learned:
        if skill.success_stat is None:
            result.warnings.append(f"skill {skill.id!r} has no success_stat, skipped")
            result.dropped += 1
            continue
        if skill.success_stat < promote_threshold:
            result.dropped += 1
            continue
        new_id = skill.id
        if new_id in library:
            n = 2
            while f"{skill.id}.{n}" in library:
                n += 1
            new_id = f"{skill.id}.{n}"
        library.add(replace(skill, id=new_id))
        result.promoted += 1
    return result
