from __future__ import annotations

import dataclasses
import operator
import random
from pathlib import Path
from typing import Sequence

import pytest

from agentfork.coherence import Diff, Hunk
from agentfork.config import SimulatorConfig
from agentfork.memory import (
    DefaultEmbedder,
    Embedder,
    MemoryError,
    MemoryItem,
    MemoryStore,
    MemoryTier,
    make_item,
    norm,
)
from agentfork.policy import ComplexityMetrics
from agentfork.protocol import (
    Action,
    ActionKind,
    ChildMetrics,
    ChildStatus,
    ExecutionContext,
    ResultPayload,
    ResumePackage,
    SpawnPackage,
    TaskSpec,
    decode_package,
)
from agentfork.runtime import ScriptedBackend, run_parent_loop
from agentfork.skills import Provenance, Skill, _task_similarity

DIM = 16

WORDS = [
    "parser", "json", "fix", "buffer", "module", "ledger", "invoice", "menu",
    "graph", "cache", "schema", "header", "block", "reader", "token", "branch",
]
FILES = ["src/a.py", "src/b.py", "src/c.py", "lib/d.py"]
SYMBOLS = ["parse", "write", "scan", "emit"]


@pytest.fixture
def embedder():
    return DefaultEmbedder(DIM)


def at_threshold(config: SimulatorConfig, threshold: float) -> SimulatorConfig:
    """``config`` with its slice threshold, ``memory_threshold``, set to ``threshold``."""
    return dataclasses.replace(config, memory_threshold=threshold)


# Oracles: plain definitions that the optimized library code is checked
# against. No run path calls them.


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise MemoryError(f"vector dim mismatch: {len(a)} vs {len(b)}")
    dot = sum(map(operator.mul, a, b))
    na = norm(a)
    nb = norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def snapshot_store(store: MemoryStore) -> MemoryStore:
    """Independent copy; mutating the copy never affects the original.

    Items are immutable, so tier lists are copied and items shared.
    """
    return MemoryStore(store.embedding_dim, store.current_step, store.items())


def skill_relevance(skill: Skill, task: TaskSpec, embedder: Embedder) -> float:
    """Embedding similarity between the template and the task, in [0, 1]."""
    return _task_similarity(embedder(task.description))(embedder(skill.template))


def tier_items(store: MemoryStore, tier: MemoryTier) -> tuple[MemoryItem, ...]:
    """The store's items in ``tier``, in insertion order."""
    return tuple(i for i in store.items() if i.tier is tier)


def read_checkpoint(path: str | Path) -> SpawnPackage | ResumePackage:
    """The package a ``write_checkpoint`` file holds."""
    return decode_package(Path(path).read_bytes())


def run_event_lines(spec, config: SimulatorConfig, seed: int) -> list[str]:
    """The event lines of the loop ``run_simulation`` runs on these inputs."""
    return run_parent_loop(config, seed, ScriptedBackend(spec.child_outcomes), spec.loop_workload()).event_lines()


def random_task(rng: random.Random) -> TaskSpec:
    return TaskSpec(
        description=" ".join(rng.choices(WORDS, k=rng.randint(2, 8))),
        constraints=tuple(rng.choices(["fast", "safe"], k=rng.randint(0, 2))),
        expected_outcome="tests pass",
        referenced_files=frozenset(rng.sample(FILES, rng.randint(0, 3))),
        referenced_symbols=frozenset(rng.sample(SYMBOLS, rng.randint(0, 2))),
    )


def random_store(rng: random.Random, embedder, max_items: int = 200) -> MemoryStore:
    store = MemoryStore(embedder.dim, current_step=rng.randint(0, 40))
    for i in range(rng.randint(0, max_items)):
        store.add(
            make_item(
                f"item-{i}",
                rng.choice(list(MemoryTier)),
                " ".join(rng.choices(WORDS, k=rng.randint(1, 12))),
                embedder,
                referenced_files=rng.sample(FILES, rng.randint(0, 2)),
                referenced_symbols=rng.sample(SYMBOLS, rng.randint(0, 2)),
                created_at_step=rng.randint(0, store.current_step),
            )
        )
    return store


def random_diff(rng: random.Random, file: str | None = None) -> Diff:
    hunks = []
    line = 1
    for _ in range(rng.randint(1, 4)):
        line += rng.randint(0, 6)
        old = tuple(f"old {line + k}" for k in range(rng.randint(0, 3)))
        new = tuple(f"new {rng.randint(0, 99)}" for _ in range(rng.randint(0, 3)))
        if not old and not new:
            new = ("new only",)
        hunks.append(Hunk(start_line=line, old_lines=old, new_lines=new))
        line += max(1, len(old))
    return Diff(file=file or rng.choice(FILES), hunks=tuple(hunks))


def random_skill(rng: random.Random, learned: bool = False) -> Skill:
    n = rng.randint(0, 3)
    names = [f"slot{k}" for k in range(n)]
    template = "Do the thing " + " ".join("{%s}" % name for name in names)
    bound = {name: rng.choice(WORDS) for name in names if rng.random() < 0.5}
    return Skill(
        id=f"skill-{rng.randint(0, 10 ** 6)}",
        template=template,
        params=tuple(sorted(bound.items())),
        provenance=Provenance.LEARNED if learned else rng.choice(
            [Provenance.BUILT_IN, Provenance.INHERITED]
        ),
        success_stat=round(rng.random(), 3) if learned else None,
    )


def random_metrics(rng: random.Random) -> ComplexityMetrics:
    return ComplexityMetrics(
        interdependency=round(rng.uniform(0, 30), 3),
        cyclomatic=round(rng.uniform(0, 70), 3),
        failure_cascade=round(rng.uniform(0, 140), 3),
        context_occupancy=round(rng.random(), 4),
        uncertainty=round(rng.uniform(0, 14), 3),
    )


def random_trace(rng: random.Random, max_len: int = 8) -> tuple[Action, ...]:
    actions = []
    step = 0
    for _ in range(rng.randint(0, max_len)):
        step += rng.randint(1, 3)
        actions.append(
            Action(step=step, kind=rng.choice(list(ActionKind)), summary=rng.choice(WORDS))
        )
    return tuple(actions)


def random_spawn_package(rng: random.Random, embedder) -> SpawnPackage:
    items = {}
    for tier in MemoryTier:
        items[tier] = tuple(
            make_item(
                f"{tier.value}-{k}-{rng.randint(0, 10 ** 6)}",
                tier,
                " ".join(rng.choices(WORDS, k=rng.randint(1, 6))),
                embedder,
                referenced_files=rng.sample(FILES, rng.randint(0, 2)),
                created_at_step=rng.randint(0, 20),
            )
            for k in range(rng.randint(0, 3))
        )
    return SpawnPackage(
        spawn_id=f"spawn-{rng.randint(0, 10 ** 6):06d}",
        parent_id=rng.choice(["parent", "agent-7"]),
        timestamp=round(rng.uniform(0, 5000), 3),
        memory=items,
        skills=tuple(random_skill(rng) for _ in range(rng.randint(0, 3))),
        context=ExecutionContext(
            repo_path="repo",
            current_file=rng.choice(FILES),
            line_number=rng.randint(0, 400),
            pending_changes=tuple(random_diff(rng) for _ in range(rng.randint(0, 2))),
        ),
        task=random_task(rng),
        metrics=random_metrics(rng),
        score=round(rng.random(), 4),
    )


def random_resume_package(rng: random.Random) -> ResumePackage:
    diffs = tuple(random_diff(rng, file=f) for f in rng.sample(FILES, rng.randint(0, 3)))
    return ResumePackage(
        spawn_id=f"spawn-{rng.randint(0, 10 ** 6):06d}",
        status=rng.choice(list(ChildStatus)),
        execution_time=round(rng.uniform(0, 900), 3),
        result=ResultPayload(
            output=" ".join(rng.choices(WORDS, k=rng.randint(0, 10))),
            code_diff=diffs,
            files_modified=frozenset(d.file for d in diffs),
        ),
        trace=random_trace(rng),
        skills_learned=tuple(random_skill(rng, learned=True) for _ in range(rng.randint(0, 2))),
        metrics=ChildMetrics(
            tokens_used=rng.randint(0, 100_000),
            api_calls=rng.randint(0, 60),
            test_pass_rate=round(rng.random(), 4),
        ),
    )
