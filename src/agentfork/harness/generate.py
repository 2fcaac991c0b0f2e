"""Synthetic workload generation with calibrated relevance and conflicts.

The generator builds memory corpora where the fraction of items scoring
above the default relevance threshold hits a requested quantile exactly
(each item is verified against the real scorer and nudged onto the right
side), plus a metric trajectory with one spawn-triggering spike and
conflict-scenario parameters matched to a requested tier mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path

from .. import schema
from ..coherence import Diff, Hunk
from ..config import SimulatorConfig
from ..memory import DefaultEmbedder, MemoryItem, MemoryTier, compute_relevance, make_item
from ..policy import ComplexityMetrics
from ..protocol import TaskSpec
from ..runtime import ScriptedOutcome
from ..skills import Provenance, Skill
from .workload import ConflictScenarioParams, DEFAULT_SKILLS, WorkloadSpec


@dataclass(frozen=True)
class GenerateParams:
    item_count: int = 400
    relevance_target_quantile: float = 0.5
    conflict_mix: tuple[float, float, float] | None = (0.15, 0.73, 0.12)
    p_semantic: float | None = None
    conflict_count: int = 10_000
    trajectory_steps: int = 8
    spike_step: int = 3
    spike: bool = True
    name: str = "synthetic"
    embedding_dim: int = 64

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_file(cls, path: str | Path) -> "GenerateParams":
        return schema.parse_file(PARAMS, schema.read_json(path), path)

    def validate(self) -> None:
        # A rule that reads one key raises a FieldError naming it, so a file
        # reports it at that key; only the spike step's upper bound reads two.
        for key, ok, rule in (
            ("item_count", self.item_count >= 1, ">= 1"),
            ("relevance_target_quantile", 0.0 <= self.relevance_target_quantile <= 1.0, "in [0, 1]"),
            ("p_semantic", self.p_semantic is None or 0.0 <= self.p_semantic <= 1.0, "in [0, 1]"),
            ("conflict_count", 0 <= self.conflict_count <= schema.MAX_CONFLICTS, f"in [0, {schema.MAX_CONFLICTS}]"),
            ("spike_step", self.spike_step >= 0, ">= 0"),
            ("embedding_dim", 1 <= self.embedding_dim <= schema.MAX_EMBEDDING_DIM, f"in [1, {schema.MAX_EMBEDDING_DIM}]"),
            ("name", schema.is_one_line(self.name), "one line"),
        ):
            if not ok:
                raise schema.FieldError(key, f"{key} must be {rule}")
        mix = self.conflict_mix
        if mix is not None:
            if len(mix) != 3:
                rule = "must hold three numbers"
            elif any(not 0.0 <= v <= 1.0 for v in mix):
                rule = "entries must be in [0, 1]"
            elif abs(sum(mix) - 1.0) > 1e-6:
                rule = "must sum to 1"
            elif mix[0] >= 1.0 and mix[1] > 0:
                rule = "semantic share requires auto share < 1"
            else:
                rule = None
            if rule:
                raise schema.FieldError("conflict_mix", f"conflict_mix {rule}")
        if self.spike_step >= self.trajectory_steps:
            raise ValueError("spike_step must be below trajectory_steps")


PARAMS = schema.flat_table(GenerateParams)


TASK = TaskSpec(
    description=(
        "Fix the failing parser and serializer modules across src/parser.py "
        "src/serializer.py and src/config.py so malformed json schema blocks "
        "are rejected with a clear diagnostic"
    ),
    constraints=("keep public signatures stable", "no new dependencies"),
    expected_outcome="all regression checks pass on the touched modules",
    referenced_files=frozenset({"src/parser.py", "src/serializer.py", "src/config.py"}),
    referenced_symbols=frozenset({"parse_header", "write_block"}),
)

# Words the relevant recipe mixes with task keywords; neutral glue.
_RELEVANT_FILLER = (
    "traceback shows the block reader returning early when the header is split",
    "regression notes for the schema validation path and its error surface",
    "call graph places the failure between tokenizing and block assembly",
    "observed the diagnostic message missing the offending line context",
    "prior attempt touched the reader buffer but not the validation hook",
)

# Off-domain vocabulary for irrelevant items.
_IRRELEVANT_SENTENCES = (
    "quarterly invoice ledger shows revenue forecast drift against plan",
    "marketing banner copy review scheduled with the brand owners",
    "cafeteria menu rotation and facilities badge audit reminders",
    "travel reimbursement workflow awaiting finance sign off",
    "hiring pipeline notes and onboarding checklist for the new cohort",
    "datacenter rack inventory spreadsheet needs a quarterly refresh",
)

_TIER_CHOICES = (
    MemoryTier.EPISODIC,
    MemoryTier.EPISODIC,
    MemoryTier.EPISODIC,
    MemoryTier.SEMANTIC,
    MemoryTier.SEMANTIC,
    MemoryTier.WORKING,
)

_BASE_STEP = 10

QUIET_METRICS = dict(lo=(1, 4, 0, 0.15, 0.3), hi=(4, 12, 3, 0.35, 1.4))
SPIKE_METRICS = ComplexityMetrics(
    interdependency=17.0,
    cyclomatic=40.0,
    failure_cascade=85.0,
    context_occupancy=0.97,
    uncertainty=8.0,
)

BASE_FILES = {
    "src/parser.py": [
        "import json",
        "",
        "def parse_header(raw):",
        "    head = raw.split(':', 1)",
        "    return head[0].strip()",
        "",
        "def parse_block(lines):",
        "    body = [l for l in lines if l]",
        "    return body",
    ],
    "src/serializer.py": [
        "def write_block(block, out):",
        "    for line in block:",
        "        out.append(line)",
        "    return out",
    ],
}

CHILD_DIFF = Diff(
    file="src/parser.py",
    hunks=(
        Hunk(
            start_line=4,
            old_lines=("    head = raw.split(':', 1)",),
            new_lines=(
                "    if ':' not in raw:",
                "        raise ValueError('missing header separator')",
                "    head = raw.split(':', 1)",
            ),
        ),
    ),
)


class GenerationError(RuntimeError):
    pass


def _quiet_point(rng: random.Random) -> ComplexityMetrics:
    lo, hi = QUIET_METRICS["lo"], QUIET_METRICS["hi"]
    return ComplexityMetrics(
        interdependency=round(rng.uniform(lo[0], hi[0]), 2),
        cyclomatic=round(rng.uniform(lo[1], hi[1]), 2),
        failure_cascade=float(rng.randint(lo[2], hi[2])),
        context_occupancy=round(rng.uniform(lo[3], hi[3]), 3),
        uncertainty=round(rng.uniform(lo[4], hi[4]), 2),
    )


def _relevant_content(rng: random.Random, keywords: list[str], word_target: int) -> str:
    take = max(3, int(len(keywords) * rng.uniform(0.6, 0.85)))
    words = rng.sample(keywords, min(take, len(keywords)))
    filler = rng.choice(_RELEVANT_FILLER).split()
    while len(words) < word_target:
        words.append(filler[len(words) % len(filler)])
    rng.shuffle(words)
    return " ".join(words[:word_target])


def _irrelevant_content(rng: random.Random, word_target: int) -> str:
    words: list[str] = []
    while len(words) < word_target:
        words.extend(rng.choice(_IRRELEVANT_SENTENCES).split())
    return " ".join(words[:word_target])


def _calibrated_item(
    rng: random.Random,
    index: int,
    relevant: bool,
    task: TaskSpec,
    keywords: list[str],
    refs: list[str],
    embedder,
    config: SimulatorConfig,
    now_step: int,
) -> MemoryItem:
    """Generate an item and verify it lands strictly on the intended side
    of the config's memory threshold, nudging it until it does."""
    threshold = config.memory_threshold
    word_target = rng.randint(20, 28)
    tier = rng.choice(_TIER_CHOICES)
    margin = 0.02
    for attempt in range(40):
        if relevant:
            content = _relevant_content(rng, keywords, word_target)
            ref_count = rng.randint(2, len(refs)) if attempt < 20 else len(refs)
            item_refs = rng.sample(refs, ref_count)
            created = rng.randint(_BASE_STEP - 2, _BASE_STEP) if attempt < 20 else _BASE_STEP
        else:
            content = _irrelevant_content(rng, word_target)
            item_refs = []
            created = rng.randint(0, 3) if attempt < 20 else 0
        item = make_item(
            item_id=f"m{index:04d}",
            tier=tier,
            content=content,
            embedder=embedder,
            referenced_files=[r for r in item_refs if "/" in r],
            referenced_symbols=[r for r in item_refs if "/" not in r],
            created_at_step=created,
        )
        score = compute_relevance(item, task, config, now_step, embedder)
        if relevant and score > threshold + margin:
            return item
        if not relevant and score < threshold - margin:
            return item
    raise GenerationError(
        f"could not calibrate item {index} onto the {'relevant' if relevant else 'irrelevant'} side"
    )


def generate_synthetic(seed: int, params: GenerateParams) -> WorkloadSpec:
    """Deterministic workload for one seed and parameter set.

    The memory corpus hits the relevance quantile exactly at the default
    ``SimulatorConfig`` memory threshold and relevance weights; the trajectory
    spikes once (context occupancy dominant) when ``spike`` is set; the
    conflict parameters realize the requested auto/semantic/escalated mix.
    """
    rng = random.Random(f"{seed}:generate:{params.name}")
    embedder = DefaultEmbedder(params.embedding_dim)
    config = SimulatorConfig()
    now_step = _BASE_STEP + params.spike_step

    keywords = sorted(
        set(
            w
            for w in TASK.description.replace(",", " ").split()
            if len(w) >= 2
        )
    )
    refs = sorted(TASK.referenced_files | TASK.referenced_symbols)

    n_relevant = round(params.item_count * params.relevance_target_quantile)
    flags = [True] * n_relevant + [False] * (params.item_count - n_relevant)
    rng.shuffle(flags)

    memory = [
        _calibrated_item(rng, i, flag, TASK, keywords, refs, embedder, config, now_step)
        for i, flag in enumerate(flags)
    ]
    if memory:
        # Pin the corpus clock so ages at the spike step are exact.
        freshest = max(range(len(memory)), key=lambda i: memory[i].created_at_step)
        memory[freshest] = dc_replace(memory[freshest], created_at_step=_BASE_STEP)

    trajectory = [_quiet_point(rng) for _ in range(params.trajectory_steps)]
    if params.spike:
        trajectory[params.spike_step] = SPIKE_METRICS

    conflicts = None
    if params.conflict_mix is not None and params.conflict_count > 0:
        auto_share, semantic_share, _ = params.conflict_mix
        if params.p_semantic is not None:
            p = params.p_semantic
        elif auto_share < 1.0:
            p = semantic_share / (1.0 - auto_share)
        else:
            p = 1.0
        conflicts = ConflictScenarioParams(
            count=params.conflict_count,
            line_disjoint_fraction=auto_share,
            semantic_success_p=min(1.0, p),
        )

    child_outcomes = {
        "context_compression": ScriptedOutcome(
            execution_time=42.0,
            output="compressed the working context and hardened the header parser",
            diffs=(CHILD_DIFF,),
            skills_learned=(
                Skill(
                    id="scope-compressor",
                    template="Condense {scope} into the minimal context needed for the fix",
                    provenance=Provenance.LEARNED,
                    success_stat=None,
                ),
            ),
            test_pass_rate=0.9,
            tokens_used=5200,
            api_calls=7,
        ),
    }

    return WorkloadSpec(
        name=params.name,
        embedding_dim=params.embedding_dim,
        task=TASK,
        memory=memory,
        skills=list(DEFAULT_SKILLS),
        base_files={k: list(v) for k, v in BASE_FILES.items()},
        trajectory=trajectory,
        child_outcomes=child_outcomes,
        conflicts=conflicts,
    )

