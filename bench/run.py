"""The agentfork benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --summary [--seed N] [--seconds S]
    python3 bench/run.py --check
    python3 bench/run.py --pin

Run from the repository root. The default mode generates one workload
(``fork_20k``, ``merge_storm`` or ``fanout``, see ``workloads.py``) from
the seed, then for ``--seconds`` seconds starts one fresh worker process
after another, each doing what ``agentfork run --format machine`` does:
``load_workload``, ``run_simulation``, ``emit_report``. One client, one
run at a time, closed loop. Every report must hash to the pinned digest
(or, for a seed without a pin, to the first run's digest); a run that
raises or differs counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the runs: ``run_s`` (run + emit), ``setup_s`` (load), and
``peak_rss_mb`` of the worker. The two times are host seconds scaled to
a reference speed: each worker also times a fixed stdlib-only loop, and
its seconds are multiplied by ``REFERENCE_NOMINAL_S`` over that loop's
time, so drift in the host's speed cancels. With ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of
``layers.json`` (those are unscaled). The line before the last carries
the environment, sample counts, raw seconds and checks.

``pins.json`` holds the sha256 of each generated workload file and of
its machine report for seeds 0-31, and of the bundled workloads' reports
at seeds 0 and 7. ``--summary`` prints the end-to-end table, with
failure rates, for all three workloads; ``--check`` compares the bundled
reports with their pins; ``--pin`` rewrites ``pins.json`` (after a change
that is meant to alter reports or generated inputs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "agentfork").is_dir():
    sys.exit(f"bench: no agentfork sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))
try:
    import tracer as tracing
    import workloads
    from agentfork.config import SimulatorConfig
    from agentfork.harness import bundled_workload_path, emit_report, list_bundled_workloads, load_workload, run_simulation, save_workload
except ImportError as exc:
    sys.exit(f"bench: cannot import agentfork from {ROOT / 'src'} ({exc}); run from a repository checkout")

WORK = ROOT / ".bench_work"
PINS = BENCH / "pins.json"
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
PINNED_SEEDS = range(32)
CHECK_SEEDS = (0, 7)
# Everything one invocation does, generation included, ends within this
# many seconds, even when workers hang or fail.
DEADLINE_S = 150
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Time of the worker's reference loop at the faster of the two speeds a
# 2-vCPU VM (Python 3.11) ran at; it is slower by up to 1.7x for minutes
# at a time. Run and set-up times are scaled to this reference speed.
REFERENCE_NOMINAL_S = 0.025


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src = ROOT / "src" / "agentfork"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def prepare(name: str, seed: int) -> tuple[Path, str]:
    """Generate the workload file and config into a fresh work directory;
    returns the directory and the workload file's sha256."""
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec, config = workloads.build(name, seed, workdir)
    save_workload(spec, workdir / "workload.json")
    (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return workdir, _sha256((workdir / "workload.json").read_bytes())


def run_worker(workdir: Path, name: str, seed: int, traced: bool, timeout: float) -> tuple[dict | None, str]:
    """One load + run + emit in a fresh process; (result, error)."""
    shutil.rmtree(workdir / workloads.CHECKPOINTS, ignore_errors=True)
    command = [sys.executable, str(BENCH / "worker.py"), str(workdir), "--seed", str(seed), "--workload", name]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f}s"
    if done.returncode != 0:
        return None, done.stderr.strip().splitlines()[-1] if done.stderr.strip() else f"exit {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1]), ""


def _expectation_errors(name: str, summary: dict) -> list[str]:
    errors = [
        f"report {key}={summary.get(key)!r}, expected {want!r}"
        for key, want in workloads.EXPECTED[name].items()
        if summary.get(key) != want
    ]
    if summary.get("status") != "completed":
        errors.append(f"report status={summary.get('status')!r}")
    return errors


def _layer_errors(name: str, layers: dict) -> list[str]:
    """Each workload must keep exercising the layers it was chosen for."""
    errors = []
    if name == "merge_storm" and layers["memory.slice_calls"] != 0:
        errors.append("merge_storm sliced memory")
    if name == "fork_20k" and layers["coherence.merge_calls"] != 0:
        errors.append("fork_20k merged diffs")
    if name == "fanout":
        for tier in ("auto", "semantic", "escalated"):
            if layers[f"coherence.tier_{tier}"] == 0:
                errors.append(f"fanout loop merges never landed on the {tier} tier")
    return errors


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the closed loop for one workload; returns the result record."""
    begin = time.perf_counter()
    workdir, input_digest = prepare(name, seed)
    pin = _load_pins().get("generated", {}).get(name, {}).get(str(seed))
    errors: list[str] = []
    if pin is not None and pin["workload"] != input_digest:
        errors.append(f"generated workload sha256 {input_digest} differs from pin {pin['workload']}")
    expected_digest = pin["report"] if pin is not None else None

    samples: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(samples[True]) < len(samples[False])
        t0 = time.perf_counter()
        result, error = run_worker(workdir, name, seed, traced, DEADLINE_S - (t0 - begin))
        last = time.perf_counter() - t0
        attempted += 1
        if result is not None:
            # A run that completed is timed even if its report is wrong.
            samples[traced].append(result)
            expected_digest = expected_digest or result["digest"]
            if result["digest"] != expected_digest:
                error = f"report sha256 {result['digest']} differs from {expected_digest}"
        if error:
            failed += 1
            errors.append(f"{'traced' if traced else 'untraced'} run {attempted}: {error}")
        now = time.perf_counter()
        enough = bool(samples[False]) and (bool(samples[True]) or not trace)
        # Stop before a run that would end more than half a run late.
        if now - start + last / 2 > seconds and (enough or now - begin + last > DEADLINE_S):
            break
    elapsed = time.perf_counter() - start

    for result in samples[False] + samples[True]:
        scale = REFERENCE_NOMINAL_S / result["reference_s"]
        result["raw"] = {key: result[key] for key in ("run_s", "setup_s")}
        result["run_s"] *= scale
        result["setup_s"] *= scale
    runs = samples[False]
    if runs:
        errors.extend(_expectation_errors(name, runs[0]["summary"]))
    metrics: dict[str, dict] = {}
    counts: dict[str, int] = {}
    values: dict[str, list[float]] = {}
    dominant = None
    if trace and runs and samples[True]:
        traced_runs = samples[True]
        layers = tracing.median_metrics([r["layers"] for r in traced_runs])
        errors.extend(_layer_errors(name, layers))
        untraced_run_s = statistics.median(r["run_s"] for r in runs)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["run_s"] for r in traced_runs) / untraced_run_s - 1.0
        )
        units = {m["name"]: m["unit"] for m in LAYERS["metrics"]}
        metrics = {key: {"value": layers[key], "unit": units[key]} for key in units}
        counts = {"traced": len(traced_runs), "untraced": len(runs)}
        dominant = all(r["dominant"] for r in traced_runs)
    elif not trace and runs:
        for key, unit in END_TO_END_UNITS.items():
            metrics[key] = {"value": statistics.median(r[key] for r in runs), "unit": unit}
            counts[key] = len(runs)
            values[key] = [round(r[key], 6) for r in runs]
        for key in ("run_s", "setup_s"):
            values["raw_" + key] = [round(r["raw"][key], 6) for r in runs]
        values["reference_s"] = [round(r["reference_s"], 6) for r in runs]
    return {
        "workload": name,
        "seed": seed,
        "pinned": pin is not None,
        "input_sha256": input_digest,
        "report_sha256": expected_digest,
        "seconds": elapsed,
        "samples": counts,
        "values": values,
        "dominant_layers_lead": dominant,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _report_digest(spec, config, seed: int) -> str:
    return _sha256(emit_report(run_simulation(spec, config, seed), "machine").encode("utf-8"))


def _bundled_digests() -> dict[str, str]:
    """Report sha256 of every bundled workload at seeds 0 and 7, keyed
    ``name:seed``, under the default config as ``agentfork run`` uses."""
    digests = {}
    for name in list_bundled_workloads():
        spec = load_workload(bundled_workload_path(name))
        for seed in CHECK_SEEDS:
            digests[f"{name}:{seed}"] = _report_digest(spec, SimulatorConfig(), seed)
    return digests


def check_bundled() -> int:
    """Bundled reports against their pins, and the per-layer list of
    BENCHMARK.json against layers.json."""
    pins = _load_pins().get("bundled", {})
    mismatches = 0
    for case, digest in _bundled_digests().items():
        ok = pins.get(case) == digest
        mismatches += not ok
        print(f"{'ok      ' if ok else 'MISMATCH'} {case} {digest}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    listed = [{key: m[key] for key in ("name", "unit", "better")} for m in LAYERS["metrics"]]
    if declared != listed:
        mismatches += 1
        print("MISMATCH BENCHMARK.json per_layer differs from bench/layers.json")
    print(f"{mismatches} mismatches")
    return 1 if mismatches else 0


def pin_all() -> int:
    """Rewrite pins.json from the current program."""
    pins: dict = {"bundled": _bundled_digests(), "generated": {}}
    for name in workloads.NAMES:
        pins["generated"][name] = {}
        for seed in PINNED_SEEDS:
            workdir, input_digest = prepare(name, seed)
            config = SimulatorConfig.from_file(workdir / "config.json")
            report = _report_digest(load_workload(workdir / "workload.json"), config, seed)
            pins["generated"][name][str(seed)] = {"workload": input_digest, "report": report}
            print(f"pinned {name} seed={seed}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def summary(seed: int, seconds: float) -> int:
    print(json.dumps({"environment": environment()}))
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'unit':<5} {'samples':>7}")
    ok = True
    for name in workloads.NAMES:
        record = measure(name, seed, seconds, trace=False)
        for key, metric in record["metrics"].items():
            print(f"{name:<12} {key:<12} {metric['value']:>12.4f} {metric['unit']:<5} {record['samples'][key]:>7}")
        rate = record["failed"] / record["attempted"]
        print(f"{name:<12} {'failure_rate':<12} {rate:>12.4f} {'ratio':<5} {record['attempted']:>7}")
        for error in record["errors"]:
            print(f"{name:<12} error: {error}")
        ok = ok and not record["errors"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="agentfork benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--summary", action="store_true", help="end-to-end table for all workloads")
    mode.add_argument("--check", action="store_true", help="bundled workloads x seeds 0, 7 against pins")
    mode.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = parser.parse_args()
    if args.check:
        return check_bundled()
    if args.pin:
        return pin_all()
    if args.summary:
        return summary(args.seed, args.seconds)
    if args.workload is None:
        return _fail("--workload is required")

    env = environment()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not record["metrics"]:
        print(json.dumps({"environment": env, **record}), file=sys.stderr)
        return _fail("no run completed")
    print(json.dumps({"environment": env, **{k: v for k, v in record.items() if k != "metrics"}}))
    print(
        json.dumps(
            {
                "correct": not record["errors"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
