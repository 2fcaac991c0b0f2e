"""The three generated benchmark workloads.

Each workload is a pair (workload file, config) built from one seed with
the repository's own ``generate_synthetic`` and then reshaped, so the
program under test receives only generated inputs, exactly as
``agentfork run --workload FILE --config FILE --seed N`` would.

- ``fork_20k``: the parent's fork path (decide, slice, select skills,
  package, checkpoint) on a 20k-item store, with a blocking parent.
- ``merge_storm``: the coherence layer alone, 30k two-child conflict
  scenarios at the 15/73/12 auto/semantic/escalated mix.
- ``fanout``: the runtime tree and scheduler, skill-library growth,
  memory writes, and multi-child merges inside the loop.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from agentfork.coherence import Diff, Hunk
from agentfork.config import SimulatorConfig
from agentfork.harness.generate import SPIKE_METRICS, GenerateParams, generate_synthetic
from agentfork.harness.workload import WorkloadSpec
from agentfork.policy import ComplexityMetrics, Specialization
from agentfork.runtime import NestedSpawn, ScriptedOutcome
from agentfork.skills import Provenance, Skill

NAMES = ("fork_20k", "merge_storm", "fanout")

# fork_20k: three spikes, each more than the default cooldown (5 steps)
# after the previous one, inside a long quiet trajectory.
FORK_ITEMS = 20_000
FORK_STEPS = 24
FORK_SPIKES = (2, 10, 18)
CHECKPOINTS = "checkpoints"

MERGE_SCENARIOS = 30_000

FANOUT_ITEMS = 50
FANOUT_BATCHES = 30
FANOUT_LEAVES = 6
FANOUT_LEAF_TIME = 1.0

# One spike shape per root specialization. Every reading stays inside
# the policy's prior bounds, so calibration never widens and each shape
# keeps its dominant metric; the score is about 0.9 against the 0.7
# threshold.
_SPIKE_SHAPES = (
    (Specialization.REFACTORING, ComplexityMetrics(19.4, 45.0, 90.0, 0.9, 9.0)),
    (Specialization.SIMPLIFICATION, ComplexityMetrics(18.0, 48.5, 90.0, 0.9, 9.0)),
    (Specialization.TESTING_DEBUGGING, ComplexityMetrics(18.0, 45.0, 97.0, 0.9, 9.0)),
    (Specialization.CONTEXT_COMPRESSION, ComplexityMetrics(18.0, 45.0, 90.0, 0.98, 9.0)),
)
_QUIET = ComplexityMetrics(2.0, 6.0, 1.0, 0.2, 0.5)

# Two shared files. Every child edit is a pure insertion, so a diff
# still applies after earlier batches have grown the files.
_SHARED_A = "src/registry.py"
_SHARED_B = "src/handlers.py"

# Insertion lines per specialization, in batch order. On file A the
# first, second and fourth children insert at distinct lines (auto
# merges); on file B the third child inserts where the first did, so
# every batch needs a semantic merge that can succeed or escalate.
_INSERTS = (
    {_SHARED_A: 2, _SHARED_B: 2},
    {_SHARED_A: 6},
    {_SHARED_B: 2},
    {_SHARED_A: 10, _SHARED_B: 10},
)


def _base_file(stem: str) -> list[str]:
    return [f"# {stem} line {n}" for n in range(1, 13)]


def _fork_20k(seed: int, workdir: Path) -> tuple[WorkloadSpec, dict]:
    spec = generate_synthetic(
        seed,
        GenerateParams(
            item_count=FORK_ITEMS,
            relevance_target_quantile=0.5,
            conflict_mix=None,
            trajectory_steps=FORK_STEPS,
            spike_step=FORK_SPIKES[0],
            name="fork_20k",
        ),
    )
    trajectory = list(spec.trajectory)
    for step in FORK_SPIKES:
        trajectory[step] = SPIKE_METRICS
    # The child hands back memory and a learned skill but no diff, so the
    # coherence layer stays idle and the run measures the fork path.
    outcome = dataclasses.replace(spec.child_outcomes["context_compression"], diffs=())
    spec = dataclasses.replace(
        spec, trajectory=trajectory, child_outcomes={"context_compression": outcome}
    )
    # Every spawn and resume package is encoded and written, as in a
    # deployment that keeps checkpoints.
    return spec, {"checkpoint_dir": str(workdir / CHECKPOINTS)}


def _merge_storm(seed: int, workdir: Path) -> tuple[WorkloadSpec, dict]:
    spec = generate_synthetic(
        seed,
        GenerateParams(
            item_count=12,
            relevance_target_quantile=0.5,
            spike=False,
            conflict_mix=(0.15, 0.73, 0.12),
            conflict_count=MERGE_SCENARIOS,
            name="merge_storm",
        ),
    )
    return spec, {}


def _root_outcome(index: int, specialization: Specialization) -> ScriptedOutcome:
    diffs = tuple(
        Diff(path, (Hunk(line, (), (f"{specialization.value} hook at {line}",)),))
        for path, line in sorted(_INSERTS[index].items())
    )
    # Half of the learned skills read like the task, so later children
    # inherit them; the other half stay below the inherit threshold.
    template = (
        f"{specialization.value}: fix the failing parser and serializer in {{module}} "
        "so malformed json schema blocks are rejected with a clear diagnostic"
        if index % 2 == 0
        else f"Run a {specialization.value} pass over {{module}} before touching the parser"
    )
    skill = Skill(
        id=f"{specialization.value}-pass",
        template=template,
        provenance=Provenance.LEARNED,
        success_stat=0.9,
    )
    return ScriptedOutcome(
        # Children spawned one step apart finish at the same instant, so
        # the parent joins and merges the whole batch at once.
        execution_time=float(len(_SPIKE_SHAPES) - index),
        output=f"{specialization.value} pass finished",
        diffs=diffs,
        skills_learned=(skill,),
        test_pass_rate=0.95,
        tokens_used=1800 + 100 * index,
        api_calls=3 + index,
        spawns=tuple(
            NestedSpawn(outcome_key="leaf", specialization=Specialization.RESEARCH_ANALYSIS)
            for _ in range(FANOUT_LEAVES)
        ),
    )


def _fanout(seed: int, workdir: Path) -> tuple[WorkloadSpec, dict]:
    spec = generate_synthetic(
        seed,
        GenerateParams(
            item_count=FANOUT_ITEMS,
            relevance_target_quantile=0.5,
            spike=False,
            conflict_mix=None,
            name="fanout",
        ),
    )
    # A batch is four spike steps, then one quiet step on which the
    # parent, still at its concurrency limit, joins the batch.
    trajectory = []
    for _ in range(FANOUT_BATCHES):
        trajectory.extend(shape for _, shape in _SPIKE_SHAPES)
        trajectory.append(_QUIET)
    outcomes = {
        specialization.value: _root_outcome(i, specialization)
        for i, (specialization, _) in enumerate(_SPIKE_SHAPES)
    }
    outcomes["leaf"] = ScriptedOutcome(
        execution_time=FANOUT_LEAF_TIME, output="leaf done", tokens_used=300, api_calls=1
    )
    spec = dataclasses.replace(
        spec,
        base_files={_SHARED_A: _base_file("registry"), _SHARED_B: _base_file("handlers")},
        trajectory=trajectory,
        child_outcomes=outcomes,
        conflicts=None,
    )
    return spec, {"parent_blocks": False, "cooldown_steps": 0}


_BUILDERS = {"fork_20k": _fork_20k, "merge_storm": _merge_storm, "fanout": _fanout}


def build(name: str, seed: int, workdir: Path) -> tuple[WorkloadSpec, dict]:
    """The workload spec and config mapping for one workload and seed;
    files the run writes go under ``workdir``."""
    return _BUILDERS[name](seed, workdir)


# What each workload's machine report must show, whatever the seed.
EXPECTED = {
    "fork_20k": {"spawn_count": len(FORK_SPIKES), "conflicts.total": 0, "queued_spawns": 0},
    "merge_storm": {"spawn_count": 0, "conflicts.total": MERGE_SCENARIOS},
    "fanout": {
        "spawn_count": FANOUT_BATCHES * len(_SPIKE_SHAPES),
        "queued_spawns": FANOUT_BATCHES
        * len(_SPIKE_SHAPES)
        * (FANOUT_LEAVES - SimulatorConfig().concurrent_spawn_limit),
        "tree_max_depth": 2,
    },
}
