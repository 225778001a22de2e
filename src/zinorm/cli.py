"""Command-line interface.

Exit codes: 0 on success, 2 for input problems and for output files that
cannot be written, 3 for degenerate computations. Pipeline errors, write
failures included, print a single ``ERROR:``-prefixed line to stderr. The
``ZINORM_LOG`` environment variable sets the logging level (debug, info,
warning, error; default warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import DegenerateComputationError, InputDataError
from .indicators import IndicatorKind
from .report import ReportConfig, render_json, render_table, run_report
from .synth import (
    WorldSpec,
    convergent_validity_run,
    coverage_experiment,
    generate_synthetic,
    write_synthetic,
)

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    raw = os.environ.get("ZINORM_LOG", "warning").strip().lower()
    level = logging.getLevelName(raw.upper())
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if not isinstance(logging.getLevelName(raw.upper()), int):
        logger.warning("unknown ZINORM_LOG value %r, using warning", raw)


def _parse_indicators(raw: str) -> tuple[IndicatorKind, ...]:
    kinds = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            kinds.append(IndicatorKind(token))
        except ValueError:
            valid = ", ".join(k.value for k in IndicatorKind)
            raise InputDataError(
                f"unknown indicator {token!r}; valid: {valid}"
            ) from None
    if not kinds:
        raise InputDataError("no indicators requested")
    return tuple(kinds)


def _parse_compare(values: list[str]) -> tuple[tuple[str, str], ...]:
    pairs = []
    for value in values:
        parts = value.split(":")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise InputDataError(
                f"comparison {value!r} must have the form LABEL:LABEL"
            )
        pairs.append((parts[0], parts[1]))
    return tuple(pairs)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputDataError(f"cannot write output: {exc}") from exc


def cmd_compute(args: argparse.Namespace) -> int:
    config = ReportConfig(
        publications=Path(args.publications),
        membership=Path(args.membership),
        indicators=_parse_indicators(args.indicators),
        min_stratum_papers=args.min_stratum_papers,
        zero_handling=args.zero_handling,
        restrict_to_group_strata=args.restrict_to_group_strata,
        collapse_years=args.collapse_years,
        compare=_parse_compare(args.compare),
    )
    doc = run_report(config)
    text = render_json(doc) if args.format == "json" else render_table(doc)
    _emit(text, args.output)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = WorldSpec.from_json(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    table, pairs = generate_synthetic(spec)
    pub_path, mem_path = write_synthetic(table, pairs, args.out)
    sys.stdout.write(f"{pub_path}\n{mem_path}\n")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    spec = WorldSpec.from_json(args.spec)
    sys.stdout.write(render_json(coverage_experiment(spec, args.reps)))
    return 0


def cmd_validity(args: argparse.Namespace) -> int:
    spec = WorldSpec.from_json(args.spec)
    sys.stdout.write(render_json(convergent_validity_run(spec)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zinorm",
        description=(
            "Field- and time-normalized impact indicators for "
            "zero-inflated mention counts"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    compute = sub.add_parser(
        "compute", help="compute indicators from publication/membership CSVs"
    )
    compute.add_argument("--publications", required=True, metavar="FILE")
    compute.add_argument("--membership", required=True, metavar="FILE")
    compute.add_argument(
        "--indicators",
        "--indicator",
        required=True,
        metavar="LIST",
        help="comma-separated: emnpc,mnpc,mhq,mhq_prime",
    )
    compute.add_argument("--min-stratum-papers", type=int, default=10, metavar="N")
    compute.add_argument(
        "--zero-handling", choices=("correct", "drop"), default="correct"
    )
    compute.add_argument("--restrict-to-group-strata", metavar="GROUP")
    compute.add_argument(
        "--collapse-years",
        action="store_true",
        help="merge all years into one stratum per field",
    )
    compute.add_argument(
        "--compare",
        nargs="*",
        action="extend",
        default=[],
        metavar="G1:G2",
        help="populations to compare by CI overlap (repeatable)",
    )
    compute.add_argument("--output", metavar="PATH")
    compute.add_argument("--format", choices=("table", "json"), default="table")
    compute.set_defaults(func=cmd_compute)

    synth = sub.add_parser(
        "synth", help="generate a synthetic world from a JSON spec"
    )
    synth.add_argument("--spec", required=True, metavar="FILE")
    synth.add_argument(
        "--seed", type=int, metavar="N", help="override the spec's seed"
    )
    synth.add_argument("--out", required=True, metavar="DIR")
    synth.set_defaults(func=cmd_synth)

    coverage = sub.add_parser(
        "coverage", help="confidence-interval coverage experiment"
    )
    coverage.add_argument("--spec", required=True, metavar="FILE")
    coverage.add_argument("--reps", required=True, type=int, metavar="N")
    coverage.set_defaults(func=cmd_coverage)

    validity = sub.add_parser(
        "validity", help="convergent-validity run on a synthetic world"
    )
    validity.add_argument("--spec", required=True, metavar="FILE")
    validity.set_defaults(func=cmd_validity)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputDataError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    except DegenerateComputationError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
