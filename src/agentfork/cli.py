"""Command line interface.

    agentfork run --workload FILE [--config FILE] [--seed N]
                  [--report PATH] [--format human|machine]
    agentfork generate --seed N [--params FILE] --out PATH
    agentfork validate WORKLOAD_FILE_OR_NAME

Exit code 0 on a completed simulation (or valid file), 1 for a workload
that ``validate`` rejects, and 2 for any input that cannot be read or
parsed (workload, config or params), with the file and field named on
stderr, or for a report or workload that cannot be written, with its
path named. The --workload argument of ``run`` and the workload argument
of ``validate`` also accept the name of a bundled workload (see
``agentfork validate --list``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import SimulatorConfig
from .harness import (
    GenerateParams,
    bundled_workload_path,
    emit_report,
    generate_synthetic,
    list_bundled_workloads,
    load_workload,
    run_simulation,
    save_workload,
    validate_workload_data,
)
from .schema import InputError, read_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentfork", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a workload and emit a report")
    run.add_argument("--workload", required=True, help="workload file or bundled workload name")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--report", help="write the report here instead of stdout")
    run.add_argument("--format", choices=("human", "machine"), default="human")

    generate = sub.add_parser("generate", help="generate a synthetic workload")
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--params", help="JSON file of generation parameters")
    generate.add_argument("--out", required=True, help="output workload path")

    validate = sub.add_parser("validate", help="schema-check a workload file")
    validate.add_argument("workload", nargs="?", help="workload file or bundled workload name")
    validate.add_argument("--list", action="store_true", help="list bundled workloads")
    return parser


def _resolve_workload(arg: str) -> Path:
    path = Path(arg)
    if path.exists() or "/" in arg or arg.endswith(".json"):
        return path
    return bundled_workload_path(arg)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"{path}: cannot write ({exc.strerror or exc})", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    workload = load_workload(_resolve_workload(args.workload))
    config = SimulatorConfig.from_file(args.config) if args.config else SimulatorConfig()
    if not args.report:
        sys.stdout.write(emit_report(run_simulation(workload, config, args.seed), args.format))
        return 0
    report = Path(args.report)
    try:
        # Open the report before the run, so an unwritable path costs no run.
        report.parent.mkdir(parents=True, exist_ok=True)
        report.open("a").close()
    except OSError as exc:
        return _cannot_write(args.report, exc)
    text = emit_report(run_simulation(workload, config, args.seed), args.format)
    try:
        report.write_text(text, encoding="utf-8")
    except OSError as exc:
        return _cannot_write(args.report, exc)
    return 0


def _cmd_generate(args) -> int:
    params = GenerateParams.from_file(args.params) if args.params else GenerateParams()
    spec = generate_synthetic(args.seed, params)
    try:
        save_workload(spec, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out} ({len(spec.memory)} memory items, {len(spec.trajectory)} steps)")
    return 0


def _cmd_validate(args) -> int:
    if args.list:
        for name in list_bundled_workloads():
            print(name)
        return 0
    if not args.workload:
        print("validate: a workload file or name is required (or use --list)", file=sys.stderr)
        return 2
    errors = validate_workload_data(read_json(_resolve_workload(args.workload)))
    if errors:
        for err in errors:
            print(f"{args.workload}: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_validate(args)
    except InputError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
