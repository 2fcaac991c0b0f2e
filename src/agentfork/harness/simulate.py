"""End-to-end simulation: parent loop plus scripted conflict scenarios.

Everything is seeded: the loop's merge randomness, the conflict phase's
scenario draws, and child ids are all derived from the run seed, so one
(workload, config, seed) triple always produces the same report bytes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..coherence import Diff, Hunk, ResolutionTier, StochasticMergeBackend
# Bound under this name because bench/tracer.py wraps simulate.merge_results.
from ..coherence import merge_diff_sets as merge_results
from ..config import SimulatorConfig
from ..runtime import ScriptedBackend, run_parent_loop
from .report import RunReport
from .workload import ConflictScenarioParams, WorkloadSpec


@dataclass
class ConflictPhaseStats:
    total: int = 0
    auto: int = 0
    semantic: int = 0
    escalated: int = 0
    semantic_attempts: int = 0
    semantic_successes: int = 0
    auto_failures: int = 0
    escalation_leaks: int = 0

    def overlapping(self) -> int:
        return self.semantic + self.escalated


_BASE_LEN = 12


def _scenario_diffs(rng: random.Random, disjoint: bool, base: list[str]) -> tuple[Diff, Diff, str]:
    path = "src/shared.py"
    if disjoint:
        left_at, right_at = rng.choice(((2, 8), (1, 10), (3, 7)))
        left = Diff(path, (Hunk(left_at, (base[left_at - 1],), (f"left edit {left_at}",)),))
        right = Diff(path, (Hunk(right_at, (base[right_at - 1],), (f"right edit {right_at}",)),))
    else:
        at = rng.choice((3, 5, 7))
        left = Diff(
            path,
            (Hunk(at, (base[at - 1], base[at]), (f"left rewrite {at}", "left extra")),),
        )
        right = Diff(
            path,
            (Hunk(at + 1, (base[at], base[at + 1]), (f"right rewrite {at + 1}",)),),
        )
    return left, right, path


def run_conflict_phase(params: ConflictScenarioParams, seed: int) -> ConflictPhaseStats:
    """Push scripted two-child conflict scenarios through the full merge
    protocol and tally resolution tiers."""
    rng = random.Random(f"{seed}:conflicts")
    backend = StochasticMergeBackend(params.semantic_success_p, rng)
    stats = ConflictPhaseStats()
    base = [f"line {j} of shared module" for j in range(1, _BASE_LEN + 1)]
    for n in range(params.count):
        disjoint = rng.random() < params.line_disjoint_fraction
        left, right, path = _scenario_diffs(rng, disjoint, base)
        entries = ((f"c{n}a", (left,)), (f"c{n}b", (right,)))
        outcome = merge_results(entries, {path: base}, backend)
        stats.total += 1
        resolution = outcome.resolutions[0]
        if resolution.tier is ResolutionTier.AUTO:
            stats.auto += 1
            if not resolution.success:
                stats.auto_failures += 1
        elif resolution.tier is ResolutionTier.SEMANTIC:
            stats.semantic += 1
        else:
            stats.escalated += 1
            if any(d.file == path for d in outcome.merged_diffs):
                stats.escalation_leaks += 1
    stats.semantic_attempts = backend.attempts
    stats.semantic_successes = backend.successes
    return stats


def run_simulation(spec: WorkloadSpec, config: SimulatorConfig, seed: int) -> RunReport:
    """Execute the workload under the config and assemble the run report."""
    loop_config = config.loop_config(seed)
    backend = ScriptedBackend(spec.child_outcomes)
    loop_result = run_parent_loop(spec.task, loop_config, backend, spec.loop_workload())

    records = loop_result.spawn_records
    tokens_parent_total = sum(r.tokens_parent for r in records)
    tokens_slice_total = sum(r.tokens_slice for r in records)
    reduction = (
        100.0 * (1.0 - tokens_slice_total / tokens_parent_total) if tokens_parent_total else 0.0
    )

    conflict_auto = conflict_semantic = conflict_escalated = 0
    semantic_attempts = semantic_successes = 0
    escalation_leaks = 0
    for outcome in loop_result.merge_outcomes:
        conflict_auto += outcome.tier_count(ResolutionTier.AUTO)
        conflict_semantic += outcome.tier_count(ResolutionTier.SEMANTIC)
        conflict_escalated += outcome.tier_count(ResolutionTier.ESCALATED)
        merged_files = {d.file for d in outcome.merged_diffs}
        escalation_leaks += sum(1 for f in outcome.escalated_files if f in merged_files)

    phase_summary = "conflicts:none"
    if spec.conflicts is not None and spec.conflicts.count > 0:
        phase = run_conflict_phase(spec.conflicts, seed)
        conflict_auto += phase.auto
        conflict_semantic += phase.semantic
        conflict_escalated += phase.escalated
        semantic_attempts += phase.semantic_attempts
        semantic_successes += phase.semantic_successes
        escalation_leaks += phase.escalation_leaks
        phase_summary = (
            f"conflicts:total={phase.total};auto={phase.auto};"
            f"semantic={phase.semantic};escalated={phase.escalated}"
        )

    conflict_total = conflict_auto + conflict_semantic + conflict_escalated

    total_tokens = sum(r.tokens_used for r in records)
    total_calls = sum(r.api_calls for r in records)
    successes = sum(1 for r in records if r.outcome == "success")
    total_cost = (
        total_tokens / 1000.0 * config.price_per_1k_tokens
        + total_calls * config.price_per_api_call
    )
    cost_per_success = total_cost / successes if successes else None

    event_lines = loop_result.event_lines()
    digest_input = "\n".join(event_lines + [phase_summary])
    event_digest = hashlib.sha256(digest_input.encode("utf-8")).hexdigest()

    edges = tuple(f"{parent}>{child}" for parent, child in loop_result.tree.edges())

    return RunReport(
        workload=spec.name,
        seed=seed,
        status=loop_result.status,
        spawn_count=len(records),
        rejected_spawns=loop_result.rejected_spawns,
        queued_spawns=loop_result.queued_spawns,
        tree_max_depth=loop_result.tree.max_observed_depth(),
        tree_edges=edges,
        spawns=records,
        avg_memory_tokens=tokens_parent_total / len(records) if records else 0.0,
        sliced_memory_tokens=tokens_slice_total / len(records) if records else 0.0,
        memory_reduction_pct=reduction,
        conflict_total=conflict_total,
        conflict_auto=conflict_auto,
        conflict_semantic=conflict_semantic,
        conflict_escalated=conflict_escalated,
        semantic_attempts=semantic_attempts,
        semantic_successes=semantic_successes,
        escalation_leaks=escalation_leaks,
        total_tokens=total_tokens,
        total_api_calls=total_calls,
        successes=successes,
        total_cost=total_cost,
        cost_per_success=cost_per_success,
        followups=len(loop_result.state.followups),
        event_count=len(event_lines),
        event_digest=event_digest,
        events=tuple(event_lines),
    )
