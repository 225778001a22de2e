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
from typing import Iterable, Mapping, Sequence

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
    Membership,
    Publications,
    _distinct,
    _items,
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


def _digits(column: _Spans) -> np.ndarray | None:
    """The numbers that `column` writes in decimal, or None if a byte is not a digit.

    The spans of each width are read with one gather, as rows of digits
    that one product with the place values turns into numbers.
    """
    value = np.zeros(len(column), np.int64)
    count = np.bincount(column.width)
    for width in (np.flatnonzero(count[1:]) + 1).tolist():
        rows = slice(None) if count[width] == len(column) else column.width == width
        spans = _items(column.buf, width)[column.start[rows]]
        # In uint8, a byte below "0" wraps around to above 9.
        digits = spans.view(np.uint8).reshape(-1, width) - np.uint8(ord("0"))
        if (digits > 9).any():
            return None
        value[rows] = np.einsum("ij,j->i", digits, 10 ** np.arange(width - 1, -1, -1))
    return value


def _plain_columns(text: str, header: list[str]) -> list[_Spans] | str:
    """The columns of a plain `text`, as spans of its UTF-8 bytes, or why it is not plain.

    A plain text is the `header` line and then lines of as many fields, with
    no quote character, no carriage return and no field longer than
    `csv.field_size_limit()`; the csv module reads it as its commas and
    newlines split it.
    """
    head = ",".join(header) + "\n"
    if '"' in text or "\r" in text:
        return "quote or carriage return"
    if not text.startswith(head):
        return "header"
    data = text.encode("utf-8", "surrogatepass") + (b"" if text.endswith("\n") else b"\n")
    # Newlines and commas are single bytes in UTF-8, so bytes locate them.
    buf = np.frombuffer(data, np.uint8, offset=len(head))
    ends, commas = np.flatnonzero(buf == ord("\n")), np.flatnonzero(buf == ord(","))
    per_line = len(header) - 1
    if len(commas) != per_line * len(ends):
        return "field count"
    # Field j of a line lies between its line's j-th and (j + 1)-th separator:
    # the previous newline, its commas and its newline. With `per_line`
    # commas per line, each line holds its own when no width is negative.
    seps = [np.r_[-1, ends][:-1], *(commas[j::per_line] for j in range(per_line)), ends]
    columns = [_Spans(buf, low + 1, high - low - 1) for low, high in zip(seps, seps[1:])]
    if min(column.width.min(initial=0) for column in columns) < 0:
        return "field count"
    if max(column.width.max(initial=0) for column in columns) > csv.field_size_limit():
        return "field size"
    return columns


def _plain_publications(text: str) -> Publications | str:
    """The table of a plain publications `text`, or why it is not plain.

    Its years and mention counts must be 1 to 18 ASCII digits, which `int()`
    reads as their bytes do.
    """
    columns = _plain_columns(text, PUBLICATION_HEADER)
    if isinstance(columns, str):
        return columns
    widths = [column.width for column in columns[2:]]
    if not len(widths[0]):
        return "no data rows"
    if min(map(np.min, widths)) < 1 or max(map(np.max, widths)) > 18:
        return "year or mentions width"
    year, mentions = map(_digits, columns[2:])
    if year is None or mentions is None:
        return "year or mentions not plain digits"
    return Publications(*columns[:2], year, mentions, range(2, len(year) + 2))


def _plain_membership(text: str) -> Membership | str:
    """The table of a plain membership `text`, or why it is not plain."""
    columns = _plain_columns(text, MEMBERSHIP_HEADER)
    if isinstance(columns, str):
        return columns
    return Membership(*columns, range(2, len(columns[0]) + 2))


def _csv_table(lines: Iterable[str], header: list[str], what: str, make, numbers=()):
    """`make` of the columns and lines of the non-blank rows after `header`, read by the csv module.

    Reading stops at the first error, which names its line: a row of the
    wrong length, a column in `numbers` that is not an integer, or a row
    the csv module cannot read (a field past `csv.field_size_limit()`).
    The rows before it are made first, so that an earlier line's broken
    row rule is reported first.
    """
    reader, rows, error = csv.reader(lines), [], None
    try:
        first = next(reader, None)
        if first is None:
            raise InputDataError(f"{what} input is empty")
        if first != header:
            raise InputDataError(
                f"{what} header must be {','.join(header)!r}, got {','.join(first)!r}"
            )
        for row in reader:
            line = reader.line_num
            if len(row) != len(header):
                if not row:
                    continue
                raise InputDataError(f"line {line}: expected {len(header)} fields, got {len(row)}")
            for j in numbers:
                try:
                    row[j] = int(row[j])
                except ValueError:
                    raise InputDataError(
                        f"line {line}: {header[j]} {row[j]!r} is not an integer"
                    ) from None
            rows.append((*row, line))
    except csv.Error as exc:
        error = InputDataError(f"line {reader.line_num}: {exc}")
    except InputDataError as exc:
        error = exc
    table = make(*([list(column) for column in zip(*rows)] or [[]] * (len(header) + 1)))
    if error:
        raise error
    return table


def _csv_publications(lines: Iterable[str]) -> Publications:
    table = _csv_table(lines, PUBLICATION_HEADER, "publications", Publications, numbers=(2, 3))
    if not len(table):
        raise InputDataError("publications input has no data rows")
    return table


def _csv_membership(lines: Iterable[str]) -> Membership:
    return _csv_table(lines, MEMBERSHIP_HEADER, "membership", Membership)


def _parse(lines: Iterable[str], what: str, plain, by_csv):
    """The table of `lines`: read by `plain` from a file's text if it takes it, else by `by_csv`."""
    start = time.perf_counter()
    text = lines.read() if hasattr(lines, "read") else None
    table, reader = "not a file" if text is None else plain(text), "fast"
    if isinstance(table, str):
        reader = f"csv ({table})"
        table = by_csv(lines if text is None else io.StringIO(text, newline=""))
    if not len(table):  # Only a membership table may be empty.
        logger.warning("membership input has no data rows; only the world row will be reported")
    logger.info(
        "report.parse_%s %.3f s, %d rows, reader %s",
        what, time.perf_counter() - start, len(table), reader,
    )
    return table


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
    return _parse(lines, "publications", _plain_publications, _csv_publications)


def parse_membership(lines: Iterable[str]) -> Membership:
    """Parse membership rows into a `Membership` table, read as `parse_publications` reads.

    The header must be exactly ``paper_id,group_id``. A wrong column count
    or an empty id raises `InputDataError` naming the first offending line.
    An empty body is allowed (logged as a warning): the report then
    contains only the world row. Duplicate pairs are kept here and
    collapsed during aggregation.
    """
    return _parse(lines, "membership", _plain_membership, _csv_membership)


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
        years = _distinct(table.year)
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
