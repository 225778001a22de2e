"""Child process that runs one benchmark operation inside the library.

Run by ``run.py`` in a fresh interpreter with zinorm's ``src`` directory on
``PYTHONPATH``, so its peak resident memory is that of the work alone:

    python3 perfbench/worker.py cli SPANS -- compute --publications ...
    python3 perfbench/worker.py refilter PUBS MEM RESULT [--spans SPANS] [--setup-only]

``cli`` imports zinorm under tracing and calls ``zinorm.cli.main(argv)``
in-process; its stdout is the command's stdout. ``refilter`` parses and
aggregates the two CSVs (the set-up), then runs the library session of
`CONFIGS` and writes every configuration's results, with the error of any
group row or configuration that failed, to RESULT as JSON. With ``--spans`` the layers are traced and the spans written there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402

#: zero_handling x min_stratum_papers x restriction to one group's strata.
CONFIGS = [
    (zero_handling, min_papers, restrict)
    for zero_handling in ("correct", "drop")
    for min_papers in (5, 10, 20)
    for restrict in (None, "g00")
]


def _result(res) -> list:
    return [res.value, res.ci_lower, res.ci_upper, res.strata_used]


def _row(zinorm, profile, world, corrected, label) -> dict:
    row = {}
    is_world = label == zinorm.WORLD_LABEL
    if corrected is not None:
        corrected_profile = corrected.world if is_world else corrected.groups[label]
    try:
        row["emnpc"] = zinorm.emnpc(profile, world)
    except zinorm.DegenerateComputationError:
        if corrected is None:
            raise
        row["emnpc"] = zinorm.emnpc(corrected_profile, corrected.world)
    row["mhq"] = zinorm.mhq(profile, world)
    if not is_world:
        row["mhq_prime"] = zinorm.mhq_prime(profile, world)
    if corrected is not None:
        row["mnpc"] = zinorm.mnpc(corrected_profile, corrected.world)
    return row


def run_config(zinorm, world, groups, zero_handling, min_papers, restrict) -> dict:
    """One configuration of the README's library API on prebuilt profiles.

    Each active group's row, and the world row, is one operation. A row
    mirrors ``compute_rows``: EMNPC on raw counts with the corrected-profile
    fallback under ``correct``, MHq and MHq' (not for the world) on raw
    counts, and MNPC on corrected counts under ``correct`` only. A row that raises is recorded
    as ``{"error": ...}`` and the session goes on, so a failing group does
    not change how much work the other groups do. The configuration ends
    with overlap verdicts for every adjacent pair of successful rows and
    every indicator they share.
    """
    config = zinorm.FilterConfig(
        min_stratum_papers=min_papers,
        zero_handling=zero_handling,
        restrict_to_group_strata=restrict,
    )
    filtered = zinorm.apply_filters(world, groups, config)
    active = {label: p for label, p in filtered.groups.items() if len(p) > 0}
    corrected = None
    if zero_handling == "correct":
        corrected = zinorm.continuity_correct(filtered.world, active)
    rows = {}
    populations = {**active, zinorm.WORLD_LABEL: filtered.world}
    for label in sorted(active) + [zinorm.WORLD_LABEL]:
        try:
            rows[label] = _row(zinorm, populations[label], filtered.world, corrected, label)
        except zinorm.ZinormError as exc:
            rows[label] = {"error": f"{type(exc).__name__}: {exc}"}
    labels = [label for label in sorted(active) if "error" not in rows[label]]
    verdicts = []
    for left, right in zip(labels, labels[1:]):
        for kind in rows[left]:
            verdict = zinorm.classify_overlap(rows[left][kind], rows[right][kind])
            verdicts.append([left, right, kind, str(verdict.category)])
    return {
        "strata_kept": len(filtered.world),
        "strata_removed": len(filtered.removed),
        "groups": {
            label: row if "error" in row else {kind: _result(res) for kind, res in row.items()}
            for label, row in rows.items()
        },
        "verdicts": verdicts,
    }


def _refilter(args: argparse.Namespace) -> int:
    tracer = Tracer()
    tracer.op = "setup"
    start = time.perf_counter()
    with tracer.span("import.zinorm"):
        import zinorm
        import zinorm._kernels
    if args.spans:
        install(tracer)
    with open(args.pubs, newline="", encoding="utf-8") as fh:
        records = zinorm.parse_publications(fh)
    with open(args.mem, newline="", encoding="utf-8") as fh:
        pairs = zinorm.parse_membership(fh)
    world, groups = zinorm.build_profiles(records, pairs)
    setup_s = time.perf_counter() - start
    doc = {
        "setup_s": setup_s,
        "backend": getattr(zinorm._kernels, "BACKEND", "none"),
        "assignments": len(records),
        "papers": len({r.paper_id for r in records}),
        "membership_rows": len(pairs),
        "world_papers": world.total_papers,
    }
    if not args.setup_only:
        configs = []
        start = time.perf_counter()
        for index, (zero_handling, min_papers, restrict) in enumerate(CONFIGS):
            tracer.op = f"config-{index:02d}"
            try:
                configs.append(run_config(zinorm, world, groups, zero_handling, min_papers, restrict))
            except zinorm.ZinormError as exc:
                configs.append({"error": f"{type(exc).__name__}: {exc}"})
        doc["session_s"] = time.perf_counter() - start
        doc["configs"] = configs
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    if args.spans:
        tracer.dump(Path(args.spans))
    return 0


def _cli(args: argparse.Namespace) -> int:
    tracer = Tracer()
    tracer.op = "cli"
    with tracer.span("import.zinorm"):
        import zinorm.cli
    install(tracer)
    code = zinorm.cli.main(args.argv)
    sys.stdout.flush()
    tracer.dump(Path(args.spans))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("spans")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    refilter = sub.add_parser("refilter")
    refilter.add_argument("pubs")
    refilter.add_argument("mem")
    refilter.add_argument("result")
    refilter.add_argument("--spans")
    refilter.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv and args.argv[0] == "--":
            args.argv = args.argv[1:]
        return _cli(args)
    return _refilter(args)


if __name__ == "__main__":
    sys.exit(main())
