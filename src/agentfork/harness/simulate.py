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
from ..memory import reduction_percent
from ..runtime import ScriptedBackend, run_parent_loop
from .report import MACHINE_SCHEMA
from .workload import ConflictScenarioParams, WorkloadSpec


@dataclass
class ConflictPhaseStats:
    total: int = 0
    auto: int = 0
    semantic: int = 0
    escalated: int = 0
    semantic_attempts: int = 0
    semantic_successes: int = 0
    escalation_leaks: int = 0


_BASE_LEN = 12


def run_conflict_phase(params: ConflictScenarioParams, seed: int) -> ConflictPhaseStats:
    """Push scripted two-child conflict scenarios through the full merge
    protocol and tally resolution tiers. A scenario draws one of three
    line-disjoint or three overlapping two-child ``entries``; the six are
    built once, since diffs are frozen and the tally reads only the tier of
    the one conflict pair, never its child ids. Each merge takes the pair
    from the one file the two children share."""
    rng = random.Random(f"{seed}:conflicts")
    backend = StochasticMergeBackend(params.semantic_success_p, rng)
    stats = ConflictPhaseStats()
    path = "src/shared.py"
    base = [f"line {j} of shared module" for j in range(1, _BASE_LEN + 1)]
    disjoint_entries = tuple(
        (
            ("left", (Diff(path, (Hunk(left_at, (base[left_at - 1],), (f"left edit {left_at}",)),)),)),
            ("right", (Diff(path, (Hunk(right_at, (base[right_at - 1],), (f"right edit {right_at}",)),)),)),
        )
        for left_at, right_at in ((2, 8), (1, 10), (3, 7))
    )
    overlapping_entries = tuple(
        (
            ("left", (Diff(path, (Hunk(at, (base[at - 1], base[at]), (f"left rewrite {at}", "left extra")),)),)),
            ("right", (Diff(path, (Hunk(at + 1, (base[at], base[at + 1]), (f"right rewrite {at + 1}",)),)),)),
        )
        for at in (3, 5, 7)
    )
    base_files = {path: base}
    for _ in range(params.count):
        disjoint = rng.random() < params.line_disjoint_fraction
        entries = rng.choice(disjoint_entries if disjoint else overlapping_entries)
        outcome = merge_results(entries, base_files, backend)
        stats.total += 1
        resolution = outcome.resolutions[0]
        if resolution.tier is ResolutionTier.AUTO:
            stats.auto += 1
        elif resolution.tier is ResolutionTier.SEMANTIC:
            stats.semantic += 1
        else:
            stats.escalated += 1
            if any(d.file == path for d in outcome.merged_diffs):
                stats.escalation_leaks += 1
    stats.semantic_attempts = backend.attempts
    stats.semantic_successes = backend.successes
    return stats


# The ``spawn.<n>.<key>`` entries of a run report, in order: each reads
# the SpawnRecord attribute of its name, and ``id`` reads ``spawn_id``.
SPAWN_KEYS = (
    "id", "specialization", "step", "score", "outcome", "tokens_parent", "tokens_slice",
    "reduction_pct", "items_parent", "items_slice", "execution_time", "tokens_used",
    "api_calls", "test_pass_rate",
)


def run_simulation(spec: WorkloadSpec, config: SimulatorConfig, seed: int) -> dict:
    """Execute the workload under the config and return the run report:
    one mapping in machine key order, which ``emit_report`` prints and
    ``parse_machine_report`` reads back. ``cost.per_success`` is ``None``
    when no child succeeded."""
    backend = ScriptedBackend(spec.child_outcomes)
    loop_result = run_parent_loop(config, seed, backend, spec.loop_workload())

    records = loop_result.spawn_records
    tokens_parent_total = sum(r.tokens_parent for r in records)
    tokens_slice_total = sum(r.tokens_slice for r in records)

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

    event_lines = loop_result.event_lines()
    digest_input = "\n".join(event_lines + [phase_summary])

    report = {
        "schema": MACHINE_SCHEMA,
        "workload": spec.name,
        "seed": seed,
        "status": loop_result.status,
        "spawn_count": len(records),
        "rejected_spawns": loop_result.rejected_spawns,
        "queued_spawns": loop_result.queued_spawns,
        "tree_max_depth": loop_result.tree.max_observed_depth(),
        "tree_edges": ",".join(f"{parent}>{child}" for parent, child in loop_result.tree.edges()),
    }
    for n, record in enumerate(records, start=1):
        for key in SPAWN_KEYS:
            report[f"spawn.{n}.{key}"] = getattr(record, "spawn_id" if key == "id" else key)
    report |= {
        "memory.avg_tokens": tokens_parent_total / len(records) if records else 0.0,
        "memory.sliced_tokens": tokens_slice_total / len(records) if records else 0.0,
        "memory.reduction_pct": reduction_percent(tokens_parent_total, tokens_slice_total),
        "conflicts.total": conflict_total,
        "conflicts.auto": conflict_auto,
        "conflicts.semantic": conflict_semantic,
        "conflicts.escalated": conflict_escalated,
        "conflicts.auto_rate": conflict_auto / conflict_total if conflict_total else 0.0,
        "conflicts.semantic_rate": conflict_semantic / conflict_total if conflict_total else 0.0,
        "conflicts.escalated_rate": conflict_escalated / conflict_total if conflict_total else 0.0,
        "semantic.attempts": semantic_attempts,
        "semantic.successes": semantic_successes,
        "escalation_leaks": escalation_leaks,
        "cost.total_tokens": total_tokens,
        "cost.total_api_calls": total_calls,
        "cost.successes": successes,
        "cost.total": total_cost,
        "cost.per_success": total_cost / successes if successes else None,
        "followups": len(loop_result.state.followups),
        "events.count": len(event_lines),
        "events.digest": hashlib.sha256(digest_input.encode("utf-8")).hexdigest(),
    }
    return report
