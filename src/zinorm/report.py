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

import copy
import csv
import io
import json
import logging
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateComputationError, InputDataError
from .indicators import (
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
    CountProfile,
    FilterConfig,
    Publications,
    _Spans,
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


def _digits(buf: np.ndarray, stop: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """The numbers written as the `width` bytes before each `stop`, or None if one is not a digit."""
    value = np.zeros(len(stop), np.int64)
    for place in range(int(width.max())):
        digit = buf.take(stop - 1 - place, mode="clip").astype(np.int64) - ord("0")
        digit[width <= place] = 0
        if ((digit < 0) | (digit > 9)).any():
            return None
        value += digit * 10**place
    return value


def _plain_publications(text: str) -> Publications | str:
    """The table of a plain publications `text`, or why it is not plain.

    A plain text is the header line and then lines of four fields, with no
    quote character and no carriage return, whose years and mention counts
    are 1 to 18 ASCII digits. The csv module and `int()` read such a text
    as its commas, newlines and digit bytes do; the ids stay spans of its
    UTF-8 bytes.
    """
    head = ",".join(PUBLICATION_HEADER) + "\n"
    if '"' in text or "\r" in text:
        return "quote or carriage return"
    if not text.startswith(head) or text == head:
        return "header or no data rows"
    data = text.encode("utf-8", "surrogatepass") + (b"" if text.endswith("\n") else b"\n")
    # Newlines and commas are single bytes in UTF-8, so bytes locate them.
    buf = np.frombuffer(data, np.uint8, offset=len(head))
    ends, commas = np.flatnonzero(buf == ord("\n")), np.flatnonzero(buf == ord(","))
    if len(commas) != 3 * len(ends):
        return "field count"
    # Field j of each line runs from start[j] up to stop[j], its line's j-th
    # comma or its newline. With three commas per line, each line holds its
    # own three when no field has a negative width.
    stop = [commas[0::3], commas[1::3], commas[2::3], ends]
    start = [np.r_[0, ends[:-1] + 1], *(comma + 1 for comma in stop[:3])]
    width = [after - before for before, after in zip(start, stop)]
    if min(map(np.min, width)) < 0:
        return "field count"
    if min(map(np.min, width[2:])) < 1 or max(map(np.max, width[2:])) > 18:
        return "year or mentions width"
    year, mentions = (_digits(buf, stop[j], width[j]) for j in (2, 3))
    if year is None or mentions is None:
        return "year or mentions not plain digits"
    paper_id, field_id = (_Spans(buf, start[j], width[j]) for j in (0, 1))
    return Publications(paper_id, field_id, year, mentions, range(2, len(year) + 2))


def _csv_rows(lines: Iterable[str], header: list[str], what: str) -> Iterator:
    """The line and fields of each non-blank row after `header`, read by the csv module.

    A row the csv module cannot read (a field longer than
    `csv.field_size_limit()`, say) raises `InputDataError` naming its line.
    """
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
        if first is None:
            raise InputDataError(f"{what} input is empty")
        if first != header:
            raise InputDataError(
                f"{what} header must be {','.join(header)!r}, got {','.join(first)!r}"
            )
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise InputDataError(
                    f"line {reader.line_num}: expected {width} fields, got {len(row)}"
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise InputDataError(f"line {reader.line_num}: {exc}") from None


def _csv_publications(lines: Iterable[str]) -> Publications:
    rows = []
    try:
        for line, (paper_id, field_id, year, mentions) in _csv_rows(
            lines, PUBLICATION_HEADER, "publications"
        ):
            year, mentions = _parse_int(year, line, "year"), _parse_int(mentions, line, "mentions")
            rows.append((paper_id, field_id, year, mentions, line))
    except InputDataError:
        if rows:  # A row rule broken on an earlier line is reported first.
            Publications(*map(list, zip(*rows)))
        raise
    if not rows:
        raise InputDataError("publications input has no data rows")
    return Publications(*map(list, zip(*rows)))


def parse_publications(lines: Iterable[str]) -> Publications:
    """Parse publication rows, validating eagerly with 1-based line numbers.

    `lines` is a text file or any iterable of lines. The header must be
    exactly ``paper_id,field_id,year,mentions``. A wrong column count, a
    non-integer year or mention count, or a row that breaks a row rule of
    `Publications` raises `InputDataError` naming the first offending
    line; within a line, the first two come before the rules.
    Duplicate assignments are found by `build_profiles`. A file that the
    csv module would read as a plain split is read from its bytes in one
    pass.
    """
    start = time.perf_counter()
    text = lines.read() if hasattr(lines, "read") else None
    table = "not a file" if text is None else _plain_publications(text)
    reader = "fast" if isinstance(table, Publications) else f"csv ({table})"
    if not isinstance(table, Publications):
        table = _csv_publications(lines if text is None else io.StringIO(text, newline=""))
    logger.info(
        "report.parse_publications %.3f s, %d rows, reader %s",
        time.perf_counter() - start, len(table), reader,
    )
    return table


def parse_membership(lines: Iterable[str]) -> list[tuple[str, str]]:
    """Parse membership rows into (paper_id, group_id) pairs.

    The header must be exactly ``paper_id,group_id``. An empty body is
    allowed (logged as a warning): the report then contains only the world
    row. Duplicate pairs are kept here and collapsed during aggregation.
    """
    start = time.perf_counter()
    pairs: list[tuple[str, str]] = []
    for line, (paper_id, group_id) in _csv_rows(lines, MEMBERSHIP_HEADER, "membership"):
        if not paper_id:
            raise InputDataError(f"line {line}: empty paper_id")
        if not group_id:
            raise InputDataError(f"line {line}: empty group_id")
        pairs.append((paper_id, group_id))
    if not pairs:
        logger.warning("membership input has no data rows; only the world row will be reported")
    logger.info(
        "report.parse_membership %.3f s, %d rows, reader csv",
        time.perf_counter() - start, len(pairs),
    )
    return pairs


@dataclass(frozen=True, kw_only=True)
class ReportConfig(FilterConfig):
    """Everything `run_report` needs; mirrors the CLI options.

    The filter fields are `FilterConfig`'s, checked when the config is built.
    """

    publications: Path
    membership: Path
    indicators: tuple[IndicatorKind, ...]
    collapse_years: bool = False
    compare: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.indicators:
            raise InputDataError("at least one indicator must be requested")
        ordered = tuple(kind for kind in IndicatorKind if kind in self.indicators)
        object.__setattr__(self, "indicators", ordered)


#: The function of each indicator, read at call time so that rebinding a
#: value (as a tracer does) takes effect.
INDICATORS = {
    IndicatorKind.EMNPC: emnpc,
    IndicatorKind.MNPC: mnpc,
    IndicatorKind.MHQ: mhq,
    IndicatorKind.MHQ_PRIME: mhq_prime,
}


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
    correct = zero_handling == "correct"
    by_label = {False: {**groups, world.label: world}}

    def profiles(label: str, corrected: bool) -> tuple[CountProfile, CountProfile]:
        """`label`'s population and the world, raw or continuity-corrected."""
        if corrected not in by_label:
            result = continuity_correct(world, groups)
            notes.extend(result.notes)
            by_label[True] = {**result.groups, world.label: result.world}
        return by_label[corrected][label], by_label[corrected][world.label]

    ordered = [kind for kind in IndicatorKind if kind in kinds]
    rows: dict[str, dict[IndicatorKind, IndicatorResult]] = {}
    for label in sorted(groups) + [world.label]:
        rows[label] = {}
        for kind in ordered:
            if kind is IndicatorKind.MHQ_PRIME and label == world.label:
                notes.append(
                    "mhq_prime is undefined for the world row and was skipped"
                )
                continue
            indicator = INDICATORS[kind]
            try:
                result = indicator(*profiles(label, correct and kind is IndicatorKind.MNPC))
            except DegenerateComputationError:
                if not correct or kind is not IndicatorKind.EMNPC:
                    raise
                result = indicator(*profiles(label, True))
                result = replace(
                    result,
                    notes=result.notes
                    + ("computed on continuity-corrected profiles",),
                )
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


def rows_payload(
    rows: Mapping[str, Mapping[IndicatorKind, IndicatorResult]],
) -> dict[str, dict[str, dict]]:
    """The ``groups`` section of a report: each population's payload per indicator."""
    return {
        label: {str(kind): result_payload(result) for kind, result in by_kind.items()}
        for label, by_kind in rows.items()
    }


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
            table = parse_publications(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read publications: {exc}") from exc
    try:
        with open(config.membership, newline="", encoding="utf-8-sig") as fh:
            pairs = parse_membership(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read membership: {exc}") from exc

    notes: list[str] = []
    if config.collapse_years:
        years = np.unique(table.year)
        table = copy.copy(table)
        table.year = np.full_like(table.year, years[0])
        if len(years) > 1:
            notes.append(
                f"collapsed {len(years)} publication years into a single "
                "stratum per field"
            )

    profiles = build_profiles(table, pairs)
    world, groups = profiles

    filtered = apply_filters(world, groups, config)

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
        "groups": rows_payload(rows),
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
                "assignments": len(table),
                "papers": profiles.papers,
            },
            "membership": {
                "pairs": profiles.pairs,
                "duplicates_collapsed": len(pairs) - profiles.pairs,
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
        for kind in map(str, IndicatorKind):
            if kind in by_kind:
                rows.append((label, kind, by_kind[kind]))

    label_width = max([len("population"), *(len(r[0]) for r in rows)])
    kind_width = max([len("indicator"), *(len(r[1]) for r in rows)])
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
