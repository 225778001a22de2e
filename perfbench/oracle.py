"""Independent correctness checks for every benchmark operation.

The checks compare zinorm's outputs with the benchmark's own exact cells
(from ``worlds.py``) and its own numpy versions of the indicator formulas.
They never call zinorm. Each ``check_*`` function returns a list of
problems; an empty list means the output is correct.

The one failure the checks accept is the documented continuity-correction
defect: under ``zero_handling="correct"``, a group with no mentioned papers
in a stratum whose world has some gains 0.5 not-mentioned papers while the
world cell does not, so a group holding all of that stratum's unmentioned
papers ends up exceeding the world. `defect_sites` predicts where this
happens, and an operation failing there is counted as failed, not as wrong.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import numpy as np

from worlds import Cells

Z95 = 1.96
RTOL = 1e-9

DEFECT_RE = re.compile(
    r"stratum (?P<stratum>\S+): group '(?P<group>[^']+)' counts exceed the world counts"
)


def keep_mask(cells: Cells, zero_handling: str, min_papers: int, restrict: str | None) -> np.ndarray:
    """Strata that survive the README's filters, in their documented order."""
    world_total = cells.world_m + cells.world_n
    keep = world_total > 0
    if restrict is not None:
        g = cells.labels.index(restrict)
        keep &= (cells.group_m[g] + cells.group_n[g]) > 0
    keep &= world_total >= min_papers
    if zero_handling == "drop":
        keep &= (cells.world_m > 0) & (cells.world_n > 0)
    return keep


def _interval(value: float, half_width: float) -> list[float]:
    return [value, value * np.exp(-half_width), value * np.exp(half_width)]


def _mh(a, b, c, d) -> list[float]:
    n = a + b + c + d
    rf = a * d / n
    sf = b * c / n
    p = (a + d) / n
    q = 1.0 - p
    r, s = rf.sum(), sf.sum()
    variance = 0.5 * ((p * rf).sum() / r**2 + (p * sf + q * rf).sum() / (r * s) + (q * sf).sum() / s**2)
    contributing = int(((rf > 0) | (sf > 0)).sum())
    return _interval(r / s, Z95 * np.sqrt(variance)) + [contributing]


def expected_indicators(cells: Cells, g: int, keep: np.ndarray) -> dict[str, list[float]]:
    """EMNPC, MHq and MHq' of group ``g`` over the kept strata, on raw cells.

    Each value is ``[value, ci_lower, ci_upper, strata_used]``.
    """
    in_group = keep & ((cells.group_m[g] + cells.group_n[g]) > 0)
    a, b = cells.group_m[g][in_group], cells.group_n[g][in_group]
    c, d = cells.world_m[in_group], cells.world_n[in_group]
    cw, dw = cells.world_m[keep], cells.world_n[keep]
    p_g = (a / (a + b)).mean()
    p_w = (cw / (cw + dw)).mean()
    half = Z95 * np.sqrt(((1 - p_g) / p_g) / (a + b).sum() + ((1 - p_w) / p_w) / (cw + dw).sum())
    prime = (c - a + d - b) > 0
    return {
        "emnpc": _interval(p_g / p_w, half) + [int(in_group.sum())],
        "mhq": _mh(a, b, c, d),
        "mhq_prime": _mh(a[prime], b[prime], (c - a)[prime], (d - b)[prime]),
    }


def defect_sites(cells: Cells, keep: np.ndarray) -> set[tuple[str, str]]:
    """(stratum, group) pairs where continuity correction breaks dominance."""
    sites = set()
    for g, label in enumerate(cells.labels):
        bad = (
            keep
            & (cells.world_m > 0)
            & (cells.group_m[g] == 0)
            & (cells.group_n[g] > 0)
            & (cells.group_n[g] + 0.5 > cells.world_n)
        )
        sites.update((cells.stratum_name(i), label) for i in np.flatnonzero(bad))
    return sites


def is_documented_defect(message: str, sites: set[tuple[str, str]]) -> bool:
    match = DEFECT_RE.search(message)
    return bool(match) and (match["stratum"], match["group"]) in sites


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), 1e-300)


def _compare(where: str, got: list, want: list) -> list[str]:
    problems = []
    for name, x, y in zip(("value", "ci_lower", "ci_upper"), got, want):
        if not _close(x, y):
            problems.append(f"{where} {name}: got {x!r}, expected {y!r}")
    if got[3] != want[3]:
        problems.append(f"{where} strata_used: got {got[3]}, expected {want[3]}")
    return problems


def check_report(doc: dict, cells: Cells, n_comparisons: int) -> list[str]:
    """Check a ``zinorm compute --format json`` report with default filters."""
    problems = []
    audit = doc["audit"]
    keep = keep_mask(cells, "correct", 10, None)
    if audit["filters"]["strata_kept"] != int(keep.sum()):
        problems.append(f"strata_kept {audit['filters']['strata_kept']} != {int(keep.sum())}")
    pubs = audit["publications"]
    if (pubs["assignments"], pubs["papers"]) != (cells.assignments, cells.papers):
        problems.append(f"publication counts {pubs} != {cells.assignments}, {cells.papers}")
    if audit["membership"]["pairs"] != cells.membership_rows:
        problems.append(f"membership pairs {audit['membership']['pairs']} != {cells.membership_rows}")
    for kind, payload in doc["groups"]["world"].items():
        if not _close(payload["value"], 1.0):
            problems.append(f"world {kind} is {payload['value']!r}, not 1.0")
    for g, label in enumerate(cells.labels):
        for kind, want in expected_indicators(cells, g, keep).items():
            p = doc["groups"][label][kind]
            got = [p["value"], p["ci_lower"], p["ci_upper"], p["strata_used"]]
            problems += _compare(f"{label} {kind}", got, want)
    if len(doc["comparisons"]) != n_comparisons:
        problems.append(f"{len(doc['comparisons'])} comparisons, expected {n_comparisons}")
    return problems


def active_groups(cells: Cells, keep: np.ndarray) -> list[int]:
    """Groups with papers in at least one kept stratum."""
    present = (cells.group_m + cells.group_n) > 0
    return [g for g in range(len(cells.labels)) if (present[g] & keep).any()]


def check_refilter_config(result: dict, cells: Cells, config: tuple) -> tuple[int, int, list[str]]:
    """Check one library-session configuration, one row at a time.

    Returns ``(attempted, failed, problems)`` counted in rows: one per
    active group and one for the world. A row
    (or a whole configuration) that raised is failed; it is also a problem
    unless it is the documented defect at a site the oracle predicts. A row
    predicted to hit the defect that succeeded is a problem too.
    """
    zero_handling, min_papers, restrict = config
    keep = keep_mask(cells, *config)
    sites = defect_sites(cells, keep) if zero_handling == "correct" else set()
    where = f"config {zero_handling}/min{min_papers}/{restrict or 'all'}"
    active = active_groups(cells, keep)
    rows = len(active) + 1
    if "error" in result:
        return rows, rows, [f"{where}: unexpected error {result['error']}"]
    problems = []
    if result["strata_kept"] != int(keep.sum()):
        problems.append(f"{where}: strata_kept {result['strata_kept']} != {int(keep.sum())}")
    if sorted(result["groups"]) != sorted([cells.labels[g] for g in active] + ["world"]):
        problems.append(f"{where}: rows {sorted(result['groups'])} are not the active groups and the world")
        return rows, rows, problems
    failed = 0
    world_row = result["groups"]["world"]
    if "error" in world_row:
        failed += 1
        problems.append(f"{where} world: unexpected error {world_row['error']}")
    else:
        problems += [
            f"{where} world {kind} is {value[0]!r}, not 1.0"
            for kind, value in world_row.items()
            if not _close(value[0], 1.0)
        ]
    for g in active:
        label = cells.labels[g]
        row = result["groups"][label]
        group_sites = {site for site in sites if site[1] == label}
        if "error" in row:
            failed += 1
            if not is_documented_defect(row["error"], group_sites):
                problems.append(f"{where} {label}: unexpected error {row['error']}")
            continue
        if group_sites:
            problems.append(f"{where} {label}: succeeded although the defect is predicted at {sorted(group_sites)[0]}")
        for kind, want in expected_indicators(cells, g, keep).items():
            problems += _compare(f"{where} {label} {kind}", row[kind], want)
    return rows, failed, problems


def check_coverage(doc: dict, replications: int, kinds: int, groups: int) -> list[str]:
    """Replication bookkeeping and MHq calibration of a coverage experiment.

    MHq coverage is pooled over the groups before it is held to
    [0.93, 0.97]; a single group's estimate from 2000 replications has a
    binomial standard error near 0.005, too wide for that window.
    """
    problems = []
    if doc["replications"] != replications:
        problems.append(f"replications {doc['replications']} != {replications}")
    if len(doc["groups"]) != groups:
        problems.append(f"{len(doc['groups'])} groups, expected {groups}")
    covered = used = 0
    for label, by_kind in doc["groups"].items():
        if len(by_kind) != kinds:
            problems.append(f"{label}: {len(by_kind)} indicators, expected {kinds}")
        for kind, cell in by_kind.items():
            if cell["used"] + cell["degenerate"] != replications:
                problems.append(f"{label} {kind}: used + degenerate != {replications}")
        covered += by_kind["mhq"]["covered"]
        used += by_kind["mhq"]["used"]
    if not (used and 0.93 <= covered / used <= 0.97):
        problems.append(f"pooled mhq coverage {covered}/{used} outside [0.93, 0.97]")
    return problems


def check_synth(out_dir: Path, spec: dict) -> list[str]:
    """Read ``zinorm synth`` output back and count rows per stratum and group."""
    problems = []
    pub_lines = (out_dir / "publications.csv").read_text(encoding="utf-8").splitlines()
    mem_lines = (out_dir / "membership.csv").read_text(encoding="utf-8").splitlines()
    if pub_lines[0] != "paper_id,field_id,year,mentions" or mem_lines[0] != "paper_id,group_id":
        return ["unexpected CSV header"]
    per_stratum = Counter()
    ids = set()
    for line in pub_lines[1:]:
        paper_id, field_id, year, mentions = line.split(",")
        per_stratum[(field_id, int(year))] += 1
        ids.add(paper_id)
        if int(mentions) < 0:
            problems.append(f"negative mentions on {paper_id}")
    if len(ids) != len(pub_lines) - 1:
        problems.append("duplicate paper ids in publications.csv")
    want = {(s["field_id"], s["year"]): s["world_size"] for s in spec["strata"]}
    if per_stratum != want:
        problems.append("per-stratum publication rows differ from world_size")
    per_group = Counter()
    for line in mem_lines[1:]:
        paper_id, group_id = line.split(",")
        if paper_id not in ids:
            problems.append(f"membership names unknown paper {paper_id}")
            break
        label, field_id, year, _ = paper_id.split(":")
        if label != group_id:
            problems.append(f"paper {paper_id} listed under group {group_id}")
            break
        per_group[(group_id, field_id, int(year))] += 1
    want_groups = {
        (g["label"], field_id, year): g["sizes"]
        for g in spec["groups"]
        for field_id, year in want
    }
    if per_group != want_groups:
        problems.append("membership rows per group and stratum differ from the group sizes")
    return problems
