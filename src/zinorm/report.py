"""CSV ingestion and report assembly.

The pipeline is: parse the two CSV inputs, aggregate them into count
profiles, filter strata, then compute the requested indicators for every
group and for the world itself (the world row is the sanity baseline, always
exactly 1.0). MNPC runs on continuity-corrected profiles under the
``correct`` zero-handling policy; EMNPC and the Mantel-Haenszel quotients
run on the raw filtered counts, EMNPC falling back to corrected profiles
only when the raw computation is degenerate.

Reports are plain dicts so they serialize directly; `render_json` output is
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateComputationError, InputDataError
from .indicators import (
    KIND_ORDER,
    IndicatorKind,
    IndicatorResult,
    emnpc,
    mhq,
    mhq_prime,
    mnpc,
    percent_vs_world,
)
from .overlap import classify_overlap
from .profiles import (
    DEFAULT_YEAR_RANGE,
    WORLD_LABEL,
    CountProfile,
    FilterConfig,
    PublicationRecord,
    apply_filters,
    build_profiles,
    continuity_correct,
)

logger = logging.getLogger(__name__)

PUBLICATION_HEADER = ["paper_id", "field_id", "year", "mentions"]
MEMBERSHIP_HEADER = ["paper_id", "group_id"]

#: Ratios at or above this render without a percent-vs-world figure.
PERCENT_RENDER_LIMIT = 2.0


def _parse_int(raw: str, line: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputDataError(
            f"line {line}: {what} {raw!r} is not an integer"
        ) from None


def parse_publications(lines: Iterable[str]) -> list[PublicationRecord]:
    """Parse publication rows, validating eagerly with 1-based line numbers.

    The header must be exactly ``paper_id,field_id,year,mentions``. A wrong
    column count, a non-integer year or mention count, or a row that breaks
    a `PublicationRecord` rule raises `InputDataError` naming the offending
    line. Duplicate assignments are found by `build_profiles`.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise InputDataError("publications input is empty") from None
    if header != PUBLICATION_HEADER:
        raise InputDataError(
            f"publications header must be {','.join(PUBLICATION_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    records: list[PublicationRecord] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 4:
            raise InputDataError(
                f"line {line}: expected 4 fields, got {len(row)}"
            )
        paper_id, field_id, year_raw, mentions_raw = row
        year = _parse_int(year_raw, line, "year")
        mentions = _parse_int(mentions_raw, line, "mentions")
        try:
            records.append(PublicationRecord(paper_id, field_id, year, mentions))
        except InputDataError as exc:
            raise InputDataError(f"line {line}: {exc}") from None
    if not records:
        raise InputDataError("publications input has no data rows")
    return records


def parse_membership(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse membership rows into (paper_id, group_id) pairs.

    The header must be exactly ``paper_id,group_id``. An empty body is
    allowed (logged as a warning): the report then contains only the world
    row. Duplicate pairs are kept here and collapsed during aggregation.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise InputDataError("membership input is empty") from None
    if header != MEMBERSHIP_HEADER:
        raise InputDataError(
            f"membership header must be {','.join(MEMBERSHIP_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )
    pairs: list[tuple[str, str]] = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != 2:
            raise InputDataError(
                f"line {line}: expected 2 fields, got {len(row)}"
            )
        paper_id, group_id = row
        if not paper_id:
            raise InputDataError(f"line {line}: empty paper_id")
        if not group_id:
            raise InputDataError(f"line {line}: empty group_id")
        pairs.append((paper_id, group_id))
    if not pairs:
        logger.warning("membership input has no data rows; only the world row will be reported")
    return pairs


@dataclass(frozen=True)
class ReportConfig:
    """Everything `run_report` needs; mirrors the CLI options."""

    publications: Path
    membership: Path
    indicators: tuple[IndicatorKind, ...]
    min_stratum_papers: int = 10
    zero_handling: str = "correct"
    restrict_to_group_strata: str | None = None
    collapse_years: bool = False
    compare: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.indicators:
            raise InputDataError("at least one indicator must be requested")
        ordered = tuple(
            sorted(set(self.indicators), key=KIND_ORDER.__getitem__)
        )
        object.__setattr__(self, "indicators", ordered)
        if self.zero_handling not in ("correct", "drop"):
            raise InputDataError(
                f"zero_handling must be 'correct' or 'drop', "
                f"got {self.zero_handling!r}"
            )


def compute_rows(
    world: CountProfile,
    groups: Mapping[str, CountProfile],
    kinds: Sequence[IndicatorKind],
    *,
    zero_handling: str = "correct",
) -> tuple[dict[str, dict[IndicatorKind, IndicatorResult]], list[str]]:
    """Compute every requested indicator for each group and the world row.

    Returns the results keyed by population label and kind, plus pipeline
    notes (applied corrections, skipped rows). A degenerate indicator that
    the correction policy cannot rescue propagates as
    `DegenerateComputationError`.
    """
    notes: list[str] = []
    corrected: tuple[CountProfile, Mapping[str, CountProfile]] | None = None

    def corrected_profiles() -> tuple[CountProfile, Mapping[str, CountProfile]]:
        nonlocal corrected
        if corrected is None:
            result = continuity_correct(world, groups)
            notes.extend(result.notes)
            corrected = (result.world, result.groups)
        return corrected

    labels = sorted(groups) + [world.label]
    rows: dict[str, dict[IndicatorKind, IndicatorResult]] = {}
    for label in labels:
        rows[label] = {}
        for kind in sorted(set(kinds), key=KIND_ORDER.__getitem__):
            if kind is IndicatorKind.MHQ_PRIME and label == world.label:
                notes.append(
                    "mhq_prime is undefined for the world row and was skipped"
                )
                continue
            if kind is IndicatorKind.MNPC and zero_handling == "correct":
                cw, cg = corrected_profiles()
                profile = cw if label == world.label else cg[label]
                result = mnpc(profile, cw)
            elif kind is IndicatorKind.MNPC:
                profile = world if label == world.label else groups[label]
                result = mnpc(profile, world)
            elif kind is IndicatorKind.EMNPC:
                profile = world if label == world.label else groups[label]
                try:
                    result = emnpc(profile, world)
                except DegenerateComputationError:
                    if zero_handling != "correct":
                        raise
                    cw, cg = corrected_profiles()
                    cprofile = cw if label == world.label else cg[label]
                    result = emnpc(cprofile, cw)
                    result = replace(
                        result,
                        notes=result.notes
                        + ("computed on continuity-corrected profiles",),
                    )
            elif kind is IndicatorKind.MHQ:
                profile = world if label == world.label else groups[label]
                result = mhq(profile, world)
            else:
                result = mhq_prime(groups[label], world)
            rows[label][kind] = result
    return rows, notes


def result_payload(result: IndicatorResult) -> dict:
    """JSON-ready payload for one indicator result.

    The percent-vs-world figure is included only for ratios below
    `PERCENT_RENDER_LIMIT`; larger ratios read better as multiples.
    """
    payload = {
        "value": result.value,
        "ci_lower": result.ci_lower,
        "ci_upper": result.ci_upper,
        "strata_used": result.strata_used,
        "notes": list(result.notes),
    }
    if result.value < PERCENT_RENDER_LIMIT:
        payload["percent_vs_world"] = percent_vs_world(result.value)
    return payload


def build_comparisons(
    rows: Mapping[str, Mapping[IndicatorKind, IndicatorResult]],
    pairs: Sequence[tuple[str, str]],
    kinds: Sequence[IndicatorKind],
) -> tuple[list[dict], list[str]]:
    """Overlap verdicts for each requested pair and indicator.

    Pairs naming unknown populations raise `InputDataError`; pairs where
    one side lacks a result for some indicator (the world row has no
    mhq_prime) are skipped for that indicator with a note.
    """
    comparisons: list[dict] = []
    notes: list[str] = []
    for left, right in pairs:
        for side in (left, right):
            if side not in rows:
                raise InputDataError(
                    f"comparison references unknown population {side!r}"
                )
        for kind in kinds:
            res_left = rows[left].get(kind)
            res_right = rows[right].get(kind)
            if res_left is None or res_right is None:
                missing = left if res_left is None else right
                notes.append(
                    f"comparison {left} vs {right} skipped for {kind} "
                    f"(no result for {missing!r})"
                )
                continue
            verdict = classify_overlap(res_left, res_right)
            comparisons.append(
                {
                    "a": left,
                    "b": right,
                    "indicator": str(kind),
                    "category": str(verdict.category),
                    "p_label": verdict.p_label,
                    "overlap_proportion": verdict.overlap_proportion,
                    "arm_ratio": verdict.arm_ratio,
                    "caveat": verdict.caveat,
                }
            )
    return comparisons, notes


def run_report(config: ReportConfig) -> dict:
    """Execute the full pipeline and return the report document.

    The document is a JSON-ready dict with three sections: ``groups``
    (per-population indicator payloads), ``comparisons`` (interval overlap
    verdicts for the requested pairs), and ``audit`` (input counts, removed
    strata with reasons, corrections, and notes).
    """
    try:
        with open(config.publications, newline="", encoding="utf-8-sig") as fh:
            records = parse_publications(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read publications: {exc}") from exc
    try:
        with open(config.membership, newline="", encoding="utf-8-sig") as fh:
            pairs = parse_membership(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read membership: {exc}") from exc

    notes: list[str] = []
    if config.collapse_years:
        base_year = min(r.year for r in records)
        n_years = len({r.year for r in records})
        records = [r._replace(year=base_year) for r in records]
        if n_years > 1:
            notes.append(
                f"collapsed {n_years} publication years into a single "
                "stratum per field"
            )

    duplicate_pairs = len(pairs) - len(set(pairs))
    world, groups = build_profiles(records, pairs)

    filter_config = FilterConfig(
        min_stratum_papers=config.min_stratum_papers,
        restrict_to_group_strata=config.restrict_to_group_strata,
        zero_handling=config.zero_handling,
    )
    filtered = apply_filters(world, groups, filter_config)

    for label in sorted(filtered.groups):
        if len(filtered.groups[label]) == 0:
            notes.append(
                f"group {label!r} has no papers in the surviving strata"
            )
    active_groups = {
        label: profile
        for label, profile in filtered.groups.items()
        if len(profile) > 0
    }

    rows, row_notes = compute_rows(
        filtered.world,
        active_groups,
        config.indicators,
        zero_handling=config.zero_handling,
    )
    notes.extend(row_notes)

    comparisons, comparison_notes = build_comparisons(
        rows, config.compare, config.indicators
    )
    notes.extend(comparison_notes)

    doc = {
        "groups": {
            label: {
                str(kind): result_payload(result)
                for kind, result in by_kind.items()
            }
            for label, by_kind in rows.items()
        },
        "comparisons": comparisons,
        "audit": {
            "config": {
                "publications": str(config.publications),
                "membership": str(config.membership),
                "indicators": [str(k) for k in config.indicators],
                "min_stratum_papers": config.min_stratum_papers,
                "zero_handling": config.zero_handling,
                "restrict_to_group_strata": config.restrict_to_group_strata,
                "year_range": list(DEFAULT_YEAR_RANGE),
                "collapse_years": config.collapse_years,
            },
            "publications": {
                "assignments": len(records),
                "papers": len({r.paper_id for r in records}),
            },
            "membership": {
                "pairs": len(set(pairs)),
                "duplicates_collapsed": duplicate_pairs,
                "groups": sorted(groups),
            },
            "filters": {
                "strata_kept": len(filtered.world),
                "removed": [
                    {"stratum": str(key), "reason": reason}
                    for key, reason in filtered.removed
                ],
            },
            "notes": notes,
        },
    }
    return doc


def render_json(doc: dict) -> str:
    """Serialize a report deterministically (sorted keys, trailing newline)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _format_percent(payload: dict) -> str:
    if "percent_vs_world" not in payload:
        return ""
    return f"{payload['percent_vs_world']:+.1f}%"


def render_table(doc: dict) -> str:
    """Render a report document as a fixed-width text table."""
    lines: list[str] = []
    rows: list[tuple[str, str, dict]] = []
    for label in sorted(doc["groups"]):
        by_kind = doc["groups"][label]
        for kind in sorted(
            by_kind, key=lambda k: KIND_ORDER[IndicatorKind(k)]
        ):
            rows.append((label, kind, by_kind[kind]))

    label_width = max(len("population"), *(len(r[0]) for r in rows))
    kind_width = max(len("indicator"), *(len(r[1]) for r in rows))
    header = (
        f"{'population':<{label_width}}  {'indicator':<{kind_width}}  "
        f"{'value':>7}  {'95% CI':>16}  {'strata':>6}  vs world"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, kind, payload in rows:
        ci = f"[{payload['ci_lower']:6.2f}, {payload['ci_upper']:6.2f}]"
        lines.append(
            f"{label:<{label_width}}  {kind:<{kind_width}}  "
            f"{payload['value']:7.2f}  {ci:>18}  "
            f"{payload['strata_used']:>6}  {_format_percent(payload)}"
        )

    if doc["comparisons"]:
        lines.append("")
        lines.append("comparisons")
        lines.append("-----------")
        for cmp_ in doc["comparisons"]:
            caveat = ", caveat: unequal arms" if cmp_["caveat"] else ""
            lines.append(
                f"{cmp_['a']} vs {cmp_['b']} [{cmp_['indicator']}]: "
                f"{cmp_['category']} -> {cmp_['p_label']} "
                f"(overlap proportion {cmp_['overlap_proportion']:.2f}, "
                f"arm ratio {cmp_['arm_ratio']:.2f}{caveat})"
            )

    audit = doc["audit"]
    lines.append("")
    lines.append("audit")
    lines.append("-----")
    pubs = audit["publications"]
    lines.append(
        f"papers: {pubs['papers']} ({pubs['assignments']} stratum assignments), "
        f"groups: {', '.join(audit['membership']['groups']) or '(none)'}"
    )
    dups = audit["membership"]["duplicates_collapsed"]
    if dups:
        lines.append(f"duplicate membership pairs collapsed: {dups}")
    filt = audit["filters"]
    lines.append(f"strata kept: {filt['strata_kept']}")
    for item in filt["removed"]:
        lines.append(f"  dropped {item['stratum']}: {item['reason']}")
    for note in audit["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
