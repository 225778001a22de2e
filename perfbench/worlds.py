"""Seeded input generators for the pipeline benchmark.

Every generator is a pure function of the workload seed and a scale. While
it writes the CSVs or the spec that zinorm reads, it also computes the exact
per-stratum cells of the world and of every group with ``np.bincount``. Those
cells are the benchmark's own ground truth: the oracle in ``oracle.py``
checks zinorm's outputs against them and never against zinorm itself.

Cell arrays are float64 with shape ``(strata,)`` for the world (``world_m``
mentioned, ``world_n`` not mentioned) and ``(groups, strata)`` for the groups
(``group_m``, ``group_n``). Strata are listed in the order of ``keys``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Mention probabilities are drawn log-uniformly from this range, so sparse
#: strata with no mentioned papers occur and continuity correction fires.
MENTION_P_RANGE = (0.005, 0.30)


@dataclass
class Cells:
    """Exact cells of one generated world, computed by the benchmark."""

    keys: list[tuple[str, int]]
    labels: list[str]
    world_m: np.ndarray
    world_n: np.ndarray
    group_m: np.ndarray
    group_n: np.ndarray
    assignments: int
    papers: int
    membership_rows: int

    def stratum_name(self, index: int) -> str:
        field_id, year = self.keys[index]
        return f"{field_id}/{year}"


def _rng(seed: int, tag: str) -> np.random.Generator:
    salt = int.from_bytes(tag.encode(), "little")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _log_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    lo, hi = MENTION_P_RANGE
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def _odds_scaled(p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    odds = theta * p / (1.0 - p)
    return odds / (1.0 + odds)


def _strata_keys(fields: int, years: int) -> tuple[list[str], list[int], list[tuple[str, int]]]:
    field_ids = [f"F{f:03d}" for f in range(fields)]
    year_ids = [2001 + y for y in range(years)]
    keys = [(field_ids[f], year_ids[y]) for f in range(fields) for y in range(years)]
    return field_ids, year_ids, keys


def write_csv_world(
    out_dir: Path,
    seed: int,
    *,
    tag: str,
    fields: int,
    years: int,
    size_fn,
    thetas: list[float],
    group_share: float,
    second_field_share: float,
) -> Cells:
    """Write publications.csv and membership.csv and return their exact cells.

    Stratum ``i`` is field ``i // years`` and year ``i % years``. Each paper
    belongs to at most one group (groups are disjoint, each about
    ``group_share`` of all papers). Group papers have their stratum's mention
    odds scaled by the group's theta. A ``second_field_share`` of papers is
    also assigned to another field in the same year with the same mention
    count. Publication rows are written in a seeded random order.
    """
    rng = _rng(seed, tag)
    field_ids, year_ids, keys = _strata_keys(fields, years)
    n_strata = len(keys)
    stratum_size = size_fn(rng, n_strata)
    p = _log_uniform(rng, n_strata)

    stratum = np.repeat(np.arange(n_strata), stratum_size)
    n_papers = stratum.size
    u = rng.random(n_papers)
    group = np.floor(u / group_share).astype(np.int64)
    group[group >= len(thetas)] = -1
    theta = np.where(group >= 0, np.asarray(thetas)[np.maximum(group, 0)], 1.0)
    q = _odds_scaled(p[stratum], theta)
    mentioned = rng.random(n_papers) < q
    mentions = mentioned * (1 + rng.poisson(1.0, size=n_papers))

    second = np.flatnonzero(rng.random(n_papers) < second_field_share)
    field_of = stratum // years
    other_field = (field_of[second] + rng.integers(1, fields, size=second.size)) % fields
    second_stratum = other_field * years + stratum[second] % years

    row_paper = np.concatenate([np.arange(n_papers), second])
    row_stratum = np.concatenate([stratum, second_stratum])
    order = rng.permutation(row_paper.size)
    row_paper = row_paper[order]
    row_stratum = row_stratum[order]
    row_mentioned = mentioned[row_paper]
    row_group = group[row_paper]

    world_m = np.bincount(row_stratum, weights=row_mentioned, minlength=n_strata)
    world_all = np.bincount(row_stratum, minlength=n_strata).astype(np.float64)
    group_m = np.zeros((len(thetas), n_strata))
    group_all = np.zeros((len(thetas), n_strata))
    for g in range(len(thetas)):
        sel = row_group == g
        group_m[g] = np.bincount(row_stratum[sel], weights=row_mentioned[sel], minlength=n_strata)
        group_all[g] = np.bincount(row_stratum[sel], minlength=n_strata)

    out_dir.mkdir(parents=True, exist_ok=True)
    field_col = [field_ids[f] for f in (row_stratum // years).tolist()]
    year_col = [year_ids[y] for y in (row_stratum % years).tolist()]
    mention_col = mentions[row_paper].tolist()
    with open(out_dir / "publications.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("paper_id,field_id,year,mentions\n")
        fh.write(
            "".join(
                f"P{pid:07d},{f},{y},{m}\n"
                for pid, f, y, m in zip(row_paper.tolist(), field_col, year_col, mention_col)
            )
        )
    labels = [f"g{g:02d}" for g in range(len(thetas))]
    members = np.flatnonzero(group >= 0)
    with open(out_dir / "membership.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("paper_id,group_id\n")
        fh.write(
            "".join(
                f"P{pid:07d},{labels[g]}\n"
                for pid, g in zip(members.tolist(), group[members].tolist())
            )
        )
    return Cells(
        keys=keys,
        labels=labels,
        world_m=world_m,
        world_n=world_all - world_m,
        group_m=group_m,
        group_n=group_all - group_m,
        assignments=int(row_paper.size),
        papers=int(n_papers),
        membership_rows=int(members.size),
    )


def report_world(out_dir: Path, seed: int, scale: float = 1.0) -> Cells:
    """The ``report-1m`` inputs: 100 fields x 20 years, about 1.1M rows.

    Stratum sizes are uniform on 250-750 papers, four groups of about 4%
    each with theta 0.5, 1, 2 and 4, and 10% of papers in a second field.
    ``scale`` shrinks the number of fields for smoke runs.
    """
    fields = max(2, round(100 * scale))
    return write_csv_world(
        out_dir,
        seed,
        tag="report",
        fields=fields,
        years=20,
        size_fn=lambda rng, n: rng.integers(250, 751, size=n),
        thetas=[0.5, 1.0, 2.0, 4.0],
        group_share=0.04,
        second_field_share=0.10,
    )


def _heavy_tailed_sizes(rng: np.random.Generator, n: int) -> np.ndarray:
    # Lognormal tail over a floor of 5 papers: mean about 24, roughly a
    # fifth of the strata hold 5-9 papers, and a few hold over a thousand.
    return 5 + np.floor(rng.lognormal(mean=2.45, sigma=1.0, size=n)).astype(np.int64)


def refilter_world(out_dir: Path, seed: int, scale: float = 1.0) -> Cells:
    """The ``refilter-10k`` inputs: 500 fields x 20 years, about 240k rows.

    Heavy-tailed stratum sizes with a floor of 5 papers, 16 disjoint groups
    of about 3% each with theta log-spaced from 0.5 to 4, one field each.
    """
    fields = max(2, round(500 * scale))
    return write_csv_world(
        out_dir,
        seed,
        tag="refilter",
        fields=fields,
        years=20,
        size_fn=_heavy_tailed_sizes,
        thetas=[0.5 * 8.0 ** (g / 15) for g in range(16)],
        group_share=0.03,
        second_field_share=0.0,
    )


#: Group sizes and thetas of the coverage and synth spec.
SPEC_THETAS = (0.5, 1.0, 2.0, 4.0)
SPEC_GROUP_SIZE = 20
SPEC_WORLD_SIZE = 500


def world_spec(seed: int, scale: float = 1.0) -> dict:
    """The spec of ``coverage-2k`` and ``synth-1m`` as a JSON-ready dict.

    100 fields x 20 years x 500 papers, four groups of 20 papers in every
    stratum with theta 0.5, 1, 2 and 4, and the spec's own seed drawn from
    the workload seed.
    """
    rng = _rng(seed, "spec")
    fields = max(2, round(100 * scale))
    _, _, keys = _strata_keys(fields, 20)
    p = _log_uniform(rng, len(keys))
    return {
        "seed": int(rng.integers(0, 2**63)),
        "strata": [
            {
                "field_id": field_id,
                "year": year,
                "world_size": SPEC_WORLD_SIZE,
                "mention_probability": float(prob),
            }
            for (field_id, year), prob in zip(keys, p)
        ],
        "groups": [
            {"label": f"g{g:02d}", "sizes": SPEC_GROUP_SIZE, "theta": theta}
            for g, theta in enumerate(SPEC_THETAS)
        ],
    }


def write_spec(path: Path, spec: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
