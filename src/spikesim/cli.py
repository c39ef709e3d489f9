"""Command-line front end.

``spikesim run <config>`` executes one plan and prints its report;
``spikesim compare <config>`` runs the plan under both built-in design
flavors and reports the per-metric reductions.  Side artifacts (access trace,
routing table, calibration tables, output spikes) are written on request.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .dataflow import write_trace_csv
from .errors import CalibrationValidationError, ConfigError, TraceError, WorkloadValidationError
from .memory import dump_calibration, read_json
from .runner import (
    compare_designs,
    emit_report,
    parse_workload,
    run_experiment,
    write_routing_csv,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(prog="spikesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to the JSON configuration document")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, help="override the plan's input seed")
        p.add_argument("--dump-calibration", help="write the calibration table(s) as JSON")

    run_p = sub.add_parser("run", help="execute one plan")
    common(run_p)
    run_p.add_argument("--trace", help="write the merged access trace as CSV")
    run_p.add_argument("--dump-routing", help="write the routing table as CSV (kind moe only)")
    run_p.add_argument("--dump-output", help="write the output spike bitstream")

    cmp_p = sub.add_parser("compare", help="run under both design flavors and diff")
    common(cmp_p)
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return read_json(fh)


def _emit(doc: dict, fmt: str, output: str | None) -> None:
    blob = emit_report(doc, fmt)
    if output:
        with open(output, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob.decode())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
    except OSError as err:
        print(f"cannot read config {args.config!r}: {err}", file=sys.stderr)
        return 2
    # Malformed JSON, a repeated key, undecodable bytes, or nesting too deep to parse.
    except (ValueError, RecursionError) as err:
        print(f"config {args.config!r} is not valid JSON: {err}", file=sys.stderr)
        return 2

    try:
        plan = parse_workload(doc, seed=args.seed)

        if args.command == "run":
            result = run_experiment(plan)
            if args.dump_calibration:
                _emit(dump_calibration(result.mem.calibration), "json", args.dump_calibration)
            if args.trace:
                write_trace_csv(result.walks, args.trace)
            if args.dump_routing:
                if result.routing_table is None:
                    print("--dump-routing ignored: plan has no routing stage", file=sys.stderr)
                else:
                    write_routing_csv(result.routing_table, args.dump_routing)
            if args.dump_output:
                with open(args.dump_output, "wb") as fh:
                    fh.write(result.s_out.to_bytes())
            _emit(result.to_dict(), args.format, args.output)
        else:
            report = compare_designs(plan)
            if args.dump_calibration:
                both = {
                    "builtin2d": dump_calibration(report.run_2d.mem.calibration),
                    "builtin3d": dump_calibration(report.run_3d.mem.calibration),
                }
                _emit(both, "json", args.dump_calibration)
            _emit(report.to_dict(), args.format, args.output)
    except (WorkloadValidationError, CalibrationValidationError) as err:
        subject = "configuration" if isinstance(err, WorkloadValidationError) else "calibration file"
        print(f"invalid {subject} ({len(err.violations)} problem(s)):", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except (ConfigError, TraceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
