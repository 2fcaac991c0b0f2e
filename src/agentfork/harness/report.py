"""Run reports: machine (line-oriented key=value) and human (tabular) text.

A run report is the ordered mapping ``run_simulation`` returns. The
machine format is stable and documented: one ``key=value`` line per
entry in the mapping's order, floats via repr and ``None`` as ``n/a``.
Identical runs emit byte-identical machine reports, which is the
determinism contract the CLI exposes.
"""

from __future__ import annotations

MACHINE_SCHEMA = "run-report-v1"


def emit_report(report: dict, format: str = "human") -> str:
    if format == "machine":
        return "".join(f"{key}={'n/a' if value is None else value}\n" for key, value in report.items())
    if format == "human":
        return _emit_human(report)
    raise ValueError(f"unknown report format {format!r}")


def _emit_human(report: dict) -> str:
    out = [
        f"Run: {report['workload']} (seed {report['seed']})  status: {report['status']}",
        f"Spawns: {report['spawn_count']} started, {report['queued_spawns']} queued, "
        f"{report['rejected_spawns']} rejected; tree depth {report['tree_max_depth']}",
    ]
    if report["spawn_count"]:
        header = f"{'#':>2}  {'spawn':<12} {'specialization':<20} {'step':>4} {'outcome':<9} " \
                 f"{'Avg Memory':>10} {'Sliced Memory':>13} {'Reduction':>9}"
        out.append(header)
        out.append("-" * len(header))
        for n in range(1, report["spawn_count"] + 1):
            spawn = f"spawn.{n}."
            out.append(
                f"{n:>2}  {report[spawn + 'id']:<12} {report[spawn + 'specialization']:<20} "
                f"{report[spawn + 'step']:>4} {report[spawn + 'outcome']:<9} "
                f"{report[spawn + 'tokens_parent']:>10} {report[spawn + 'tokens_slice']:>13} "
                f"{report[spawn + 'reduction_pct']:>8.1f}%"
            )
        out.append(
            f"Memory totals: Avg Memory {report['memory.avg_tokens']:.0f} tokens, "
            f"Sliced Memory {report['memory.sliced_tokens']:.0f} tokens, "
            f"Reduction {report['memory.reduction_pct']:.1f}%"
        )
    if report["conflicts.total"]:
        out.append(
            f"Conflicts: {report['conflicts.total']} total | "
            f"auto {report['conflicts.auto']} ({100 * report['conflicts.auto_rate']:.1f}%) | "
            f"semantic {report['conflicts.semantic']} ({100 * report['conflicts.semantic_rate']:.1f}%) | "
            f"escalated {report['conflicts.escalated']} ({100 * report['conflicts.escalated_rate']:.1f}%)"
        )
    per_success = "n/a" if report["cost.per_success"] is None else f"${report['cost.per_success']:.4f}"
    out.append(
        f"Cost: {report['cost.total_tokens']} tokens, {report['cost.total_api_calls']} api calls, "
        f"total ${report['cost.total']:.4f}, per success {per_success}"
    )
    if report["followups"]:
        out.append(f"Follow-ups for the parent: {report['followups']}")
    out.append(f"Events: {report['events.count']} (digest {report['events.digest'][:12]})")
    return "\n".join(out) + "\n"


# Keys whose values are text, read back as text even when they look like
# numbers (a workload named "1e3", say); ``spawn.N.<field>`` for each field
# in ``_TEXT_SPAWN_FIELDS``.
_TEXT_KEYS = frozenset({"schema", "workload", "status", "events.digest", "tree_edges"})
_TEXT_SPAWN_FIELDS = frozenset({"id", "specialization", "outcome"})


def parse_machine_report(text: str) -> dict[str, int | float | str]:
    """Parse machine-format text back into a flat summary mapping. Text
    keys stay text; any other value that ``int()`` or ``float()`` reads
    becomes that number."""
    summary: dict[str, int | float | str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        summary[key] = raw if _is_text(key) else _parse_value(raw)
    if summary.get("schema") != MACHINE_SCHEMA:
        raise ValueError(f"not a {MACHINE_SCHEMA} report")
    return summary


def _is_text(key: str) -> bool:
    parts = key.split(".")
    return key in _TEXT_KEYS or (len(parts) == 3 and parts[0] == "spawn" and parts[2] in _TEXT_SPAWN_FIELDS)


def _parse_value(raw: str) -> int | float | str:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw
