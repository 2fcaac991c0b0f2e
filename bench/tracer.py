"""Spans around the public functions of each agentfork layer.

``Tracer.install`` swaps each traced function for a wrapper at the name
its caller binds (``runtime``, ``simulate``, ``protocol`` and ``workload``
import functions by name, so patching the defining module alone would
miss those calls) and on the classes whose methods are traced. Every
call records a span ``(id, parent id, name, start ns, end ns)``; hooks
on the arguments and return values count the work each layer did.
``layer_metrics`` turns one load + run + emit into the per-layer figures
that ``BENCHMARK.json`` lists.

Tracing lives in the benchmark, not in ``src/``: the program runs
unchanged and its report must hash to the untraced digest.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from agentfork import coherence, protocol, runtime
from agentfork.coherence import ResolutionTier
from agentfork.harness import simulate, workload
from agentfork.memory import DefaultEmbedder, MemoryStore
from agentfork.policy import SpawnAction
from agentfork.runtime import ChildScheduler, SpawnTree

# (owner, attribute, span name). The owner is the module whose globals
# the caller looks the name up in, or the class for methods.
TARGETS = (
    (runtime, "slice_memory", "memory.slice"),
    (runtime, "count_tokens", "memory.count_tokens"),
    (MemoryStore, "content_digest", "memory.digest"),
    (DefaultEmbedder, "__call__", "memory.embed"),
    (runtime, "select_inherited_skills", "skills.select"),
    (protocol, "promote_skills", "skills.promote"),
    (runtime, "decide_spawn", "policy.decide"),
    (runtime, "build_spawn_package", "protocol.build"),
    (runtime, "write_checkpoint", "protocol.checkpoint"),
    (protocol, "encode_package", "protocol.encode"),
    (runtime, "validate_resume", "protocol.validate"),
    (runtime, "replay_resume", "protocol.replay"),
    (runtime, "merge_diff_sets", "coherence.merge"),
    (simulate, "merge_results", "coherence.merge"),
    (coherence, "semantic_merge", "coherence.semantic"),
    (runtime, "apply_diff", "coherence.apply"),
    (simulate, "run_parent_loop", "runtime.loop"),
    (runtime, "flush_staged_diffs", "runtime.flush"),
    (SpawnTree, "add_child", "runtime.tree_add"),
    (SpawnTree, "mark", "runtime.tree_mark"),
    (ChildScheduler, "spawn_child", "runtime.spawn_child"),
    (ChildScheduler, "await_children", "runtime.await"),
    (simulate, "run_conflict_phase", "harness.scenarios"),
    (workload, "validate_workload_data", "harness.validate"),
    (workload, "make_item", "harness.make_item"),
)

# Which share of the run each span's self time counts towards. An embed
# counts towards the group of the span that asked for it.
GROUPS = {
    "memory.slice": "memory",
    "memory.count_tokens": "memory",
    "memory.digest": "memory",
    "protocol.replay": "memory_writes",
    "skills.select": "skills",
    "skills.promote": "skills",
    "policy.decide": "policy",
    "protocol.build": "protocol",
    "protocol.checkpoint": "protocol",
    "protocol.encode": "protocol",
    "protocol.validate": "protocol",
    "coherence.merge": "coherence",
    "coherence.semantic": "coherence",
    "coherence.apply": "coherence",
    "runtime.loop": "runtime",
    "runtime.flush": "runtime",
    "runtime.tree_add": "runtime",
    "runtime.tree_mark": "runtime",
    "runtime.spawn_child": "runtime",
    "runtime.await": "runtime",
    "harness.scenarios": "scenario_build",
    "harness.run": "harness",
    "harness.emit": "harness",
}
SHARE_GROUPS = tuple(sorted(set(GROUPS.values())))

# The groups whose combined self time should dominate each workload.
DOMINANT = json.loads(Path(__file__).with_name("layers.json").read_text(encoding="utf-8"))[
    "dominant_groups"
]


class Tracer:
    """In-memory span recorder plus the counters the hooks fill."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.root_id: str | None = None
        self._decided_at: int | None = None
        self.fork_ms: list[float] = []
        self._join_ns: defaultdict[str, int] = defaultdict(int)
        self._replayed: list[str] = []
        self.join_ms: list[float] = []
        self.loop_result = None

    def span(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(args, result, start, end)
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = owner.__dict__[attr]
                hook = getattr(self, "_on_" + attr.strip("_"), None)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # Hooks: (args, result, start ns, end ns) of one traced call.

    def _on_slice_memory(self, args, result, start, end):
        self.counts["slice_scanned"] += len(args[0])
        self.counts["slice_kept"] += len(result)

    def _on_select_inherited_skills(self, args, result, start, end):
        self.counts["skills_offered"] += len(args[0])
        self.counts["skills_inherited"] += len(result)

    def _on_decide_spawn(self, args, result, start, end):
        if result.action is SpawnAction.SPAWN:
            self.counts["spawn_decisions"] += 1
            self._decided_at = end

    def _on_spawn_child(self, args, result, start, end):
        parent = args[1]
        if result.state == "queued":
            self.counts["queued"] += 1
        if parent.depth == 0 and self._decided_at is not None:
            self.root_id = parent.id
            self.fork_ms.append((end - self._decided_at) / 1e6)
            self._decided_at = None

    def _on_encode_package(self, args, result, start, end):
        self.counts["encoded_bytes"] += len(result)

    def _on_merge_diff_sets(self, args, result, start, end):
        for tier in ResolutionTier:
            self.counts["tier_" + tier.value] += result.tier_count(tier)

    _on_merge_results = _on_merge_diff_sets

    def _on_semantic_merge(self, args, result, start, end):
        self.counts["semantic_accepted"] += result.accepted

    def _on_validate_resume(self, args, result, start, end):
        spawn = args[1]
        if spawn.parent_id == self.root_id:
            self._join_ns[spawn.spawn_id] += end - start

    def _on_replay_resume(self, args, result, start, end):
        spawn_id = args[1].spawn_id
        self._join_ns[spawn_id] += end - start
        self._replayed.append(spawn_id)

    def _on_flush_staged_diffs(self, args, result, start, end):
        if not self._replayed:
            return
        share = (end - start) / len(self._replayed)
        for spawn_id in self._replayed:
            self.join_ms.append((self._join_ns.pop(spawn_id) + share) / 1e6)
        self._replayed.clear()

    def _on_run_parent_loop(self, args, result, start, end):
        self.loop_result = result


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, workload_name: str) -> tuple[dict[str, float], bool]:
    """Per-layer figures for one traced load + run + emit, and whether the
    workload's dominant groups took a larger share of the run than any
    other group."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_ns: defaultdict[int, int] = defaultdict(int)
    for span_id, parent, _, start, end in spans:
        child_ns[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    total_ns: defaultdict[str, int] = defaultdict(int)
    self_ns: defaultdict[str, int] = defaultdict(int)
    # Shares cover the run phase: run_simulation + emit_report.
    group_ns: defaultdict[str, int] = defaultdict(int)
    in_run: dict[int, bool] = {}
    for span_id, parent, name, start, end in sorted(spans):
        own = end - start - child_ns[span_id]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own
        in_run[span_id] = name in ("harness.run", "harness.emit") or in_run.get(parent, False)
        if in_run[span_id]:
            owner, cursor = name, parent
            while owner == "memory.embed" and cursor:
                owner, cursor = by_id[cursor][2], by_id[cursor][1]
            group_ns[GROUPS.get(owner, "harness")] += own
    run_ns = total_ns["harness.run"] + total_ns["harness.emit"]

    def mean_us(name):
        return total_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    loop = tracer.loop_result
    encoded_kb = c["encoded_bytes"] / 1024
    metrics = {
        "memory.embed_calls": calls["memory.embed"],
        "memory.embed_us": mean_us("memory.embed"),
        "memory.slice_calls": calls["memory.slice"],
        "memory.slice_us_per_item": ratio(total_ns["memory.slice"] / 1e3, c["slice_scanned"]),
        "memory.slice_keep_ratio": ratio(c["slice_kept"], c["slice_scanned"]),
        "memory.digest_calls": calls["memory.digest"],
        "memory.digest_s": total_ns["memory.digest"] / 1e9,
        "memory.count_tokens_s": total_ns["memory.count_tokens"] / 1e9,
        "memory.store_items_end": len(loop.state.memory),
        "skills.select_calls": calls["skills.select"],
        "skills.select_ms": total_ns["skills.select"] / 1e6,
        "skills.inherit_ratio": ratio(c["skills_inherited"], c["skills_offered"]),
        "skills.promote_ms": total_ns["skills.promote"] / 1e6,
        "skills.library_size_end": len(loop.state.skills),
        "policy.decide_calls": calls["policy.decide"],
        "policy.decide_us": mean_us("policy.decide"),
        "policy.spawn_ratio": ratio(c["spawn_decisions"], calls["policy.decide"]),
        "protocol.encode_calls": calls["protocol.encode"],
        "protocol.encoded_kb": encoded_kb,
        "protocol.encode_us_per_kb": ratio(total_ns["protocol.encode"] / 1e3, encoded_kb),
        "protocol.checkpoint_write_ms": total_ns["protocol.checkpoint"] / 1e6,
        "protocol.build_us": mean_us("protocol.build"),
        "protocol.validate_us": mean_us("protocol.validate"),
        "protocol.replay_calls": calls["protocol.replay"],
        "protocol.replay_us": mean_us("protocol.replay"),
        "coherence.merge_calls": calls["coherence.merge"],
        "coherence.merge_us": mean_us("coherence.merge"),
        "coherence.apply_calls": calls["coherence.apply"],
        "coherence.apply_us": mean_us("coherence.apply"),
        "coherence.tier_auto": c["tier_auto"],
        "coherence.tier_semantic": c["tier_semantic"],
        "coherence.tier_escalated": c["tier_escalated"],
        "coherence.semantic_accept_ratio": ratio(c["semantic_accepted"], calls["coherence.semantic"]),
        "runtime.tree_mutations": calls["runtime.tree_add"] + calls["runtime.tree_mark"],
        "runtime.tree_mutation_us": ratio(
            (total_ns["runtime.tree_add"] + total_ns["runtime.tree_mark"]) / 1e3,
            calls["runtime.tree_add"] + calls["runtime.tree_mark"],
        ),
        "runtime.tree_nodes_end": len(loop.tree.nodes),
        "runtime.spawn_child_calls": calls["runtime.spawn_child"],
        "runtime.queued": c["queued"],
        "runtime.await_self_ms": self_ns["runtime.await"] / 1e6,
        "runtime.fork_ms_p50": _percentile(tracer.fork_ms, 0.5),
        "runtime.fork_ms_p90": _percentile(tracer.fork_ms, 0.9),
        "runtime.join_ms_p50": _percentile(tracer.join_ms, 0.5),
        "harness.parse_ms": self_ns["harness.load"] / 1e6,
        "harness.validate_ms": total_ns["harness.validate"] / 1e6,
        "harness.make_items_ms": total_ns["harness.make_item"] / 1e6,
        "harness.scenario_build_ms": self_ns["harness.scenarios"] / 1e6,
        "harness.emit_ms": total_ns["harness.emit"] / 1e6,
    }
    for group in SHARE_GROUPS:
        metrics[f"share.{group}_pct"] = 100.0 * ratio(group_ns[group], run_ns)
    dominant = sum(group_ns[g] for g in DOMINANT[workload_name])
    others = [group_ns[g] for g in SHARE_GROUPS if g not in DOMINANT[workload_name]]
    return metrics, dominant > max(others, default=0)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced runs."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
