"""One measured run: load, run and emit a generated workload, as
``agentfork run --format machine`` does, in a fresh process.

    python3 bench/worker.py WORKDIR --seed N --workload NAME [--trace]

``WORKDIR`` holds ``workload.json`` and ``config.json``. The process
does nothing else, so its peak resident memory is that of one run. It
prints one JSON object: set-up and run seconds, the time of a fixed
reference loop run just before and just after the measured work, the
sha256 of the machine report, a summary of the report, peak RSS, and
with ``--trace`` the per-layer figures (the spans go to
``WORKDIR/spans.jsonl``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from agentfork.config import SimulatorConfig  # noqa: E402
from agentfork.harness import emit_report, load_workload, parse_machine_report, run_simulation  # noqa: E402


_WORDS = re.compile(r"[a-z0-9]+")
_TEXT = "fix the failing parser and serializer modules so malformed json schema blocks are rejected " * 3


def _reference_once() -> None:
    """Stdlib-only work shaped like the program's: tokenize, hash tokens
    into a vector, digest and serialize it."""
    vectors = {}
    for i in range(300):
        vector = [0.0] * 16
        for token in _WORDS.findall(_TEXT + str(i)):
            vector[int.from_bytes(hashlib.md5(token.encode()).digest()[:4], "big") % 16] += 1.0
        vectors[i % 50] = tuple(v / 7.0 for v in vector)
        hashlib.sha256(",".join(repr(v) for v in vectors[i % 50]).encode()).hexdigest()
        json.dumps({"id": i, "vector": vectors[i % 50]})


def reference_s() -> float:
    """Median time of five reference loops: how fast this host runs
    Python code right now. The benchmark scales run and set-up times by
    it, because the host's speed drifts by up to 1.7x over minutes."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """High-water resident set of this process. ``ru_maxrss`` would not
    do: Linux carries it across fork and exec, so it would report the
    parent's size whenever the parent was the larger."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def measure(workdir: Path, seed: int, workload_name: str, trace: bool) -> dict:
    config = SimulatorConfig.from_file(workdir / "config.json")
    load, run, emit = load_workload, run_simulation, emit_report
    reference_before = reference_s()
    with contextlib.ExitStack() as stack:
        if trace:
            import tracer as tracing

            tracer = stack.enter_context(tracing.Tracer().install())
            load = tracer.span("harness.load", load)
            run = tracer.span("harness.run", run)
            emit = tracer.span("harness.emit", emit)
        t0 = time.perf_counter()
        spec = load(workdir / "workload.json")
        t1 = time.perf_counter()
        text = emit(run(spec, config, seed), "machine")
        t2 = time.perf_counter()
    result = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "reference_s": (reference_before + reference_s()) / 2,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "summary": {
            key: value
            for key, value in parse_machine_report(text).items()
            if not key.startswith("spawn.") and key != "tree_edges"
        },
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        result["layers"], result["dominant"] = tracing.layer_metrics(tracer, workload_name)
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in tracer.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print(json.dumps(measure(args.workdir, args.seed, args.workload, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
