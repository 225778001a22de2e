"""Synthetic zero-inflated worlds with known ground truth.

A `WorldSpec` defines strata (field, year, world size, world mention
probability) and groups whose mention odds are the world's odds scaled by a
multiplier theta; the world is the union of the groups plus background
papers at the base probability. Odds scaling (a logit shift) rather than
probability scaling keeps the group-vs-background odds ratio exactly theta
and can never push a probability past 1.

Randomness comes from numpy's PCG64 generator. Replications of the coverage
experiment are independent: replication i draws from a generator seeded by
(master seed, spawn key i), so any subset of replications is reproducible.

Ground truths for the coverage experiment are the indicator functionals
evaluated on the expected cell counts, computed analytically from the spec.
Because the world contains its groups, the Mantel-Haenszel quotient's
estimand is theta diluted by the group's share of the world; using the
analytic value keeps coverage a pure test of CI calibration.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateComputationError, InputDataError
from .indicators import (
    Estimate,
    IndicatorKind,
    _estimate,
    emnpc_arrays,
    mh_quotient_arrays,
    mnpc_arrays,
)
from .profiles import (
    WORLD_LABEL,
    CountProfile,
    FilterConfig,
    Publications,
    StratumKey,
    apply_filters,
    build_profiles,
    group_correction,
    world_correction,
    year_error,
    years_outside,
)
from .report import INDICATORS, build_comparisons, compute_rows, rows_payload

logger = logging.getLogger(__name__)

#: Group labels that would collide with generated paper-id prefixes.
RESERVED_LABELS = (WORLD_LABEL, "bg")

#: Characters that the CSV files `synth` writes would have to quote; no
#: field id or group label may hold them.
_QUOTED = frozenset(',"\r\n')
_QUOTED_NAMES = "',', '\"', '\\r' or '\\n'"

_VALIDITY_KINDS = (IndicatorKind.EMNPC, IndicatorKind.MNPC, IndicatorKind.MHQ)

#: The coverage the intervals are built for; `Z95` fixes their quantile.
_NOMINAL = 0.95

#: Replications drawn and evaluated together by `coverage_experiment`. On a
#: 2000-stratum spec with 2 CPUs, wall time was flat from 100 to 400, and
#: peak memory grows by about 0.6 MiB per replication of block size.
_BLOCK = 200


def group_probability(world_probability: float, theta: float) -> float:
    """Scale a world mention probability's odds by theta.

    Raises
    ------
    InputDataError
        If the inputs are out of range or the scaled probability leaves
        [0, 1] (impossible for finite positive theta, but checked).
    """
    if not (0.0 <= world_probability <= 1.0):
        raise InputDataError(
            f"world probability {world_probability!r} outside [0, 1]"
        )
    if not (math.isfinite(theta) and theta > 0):
        raise InputDataError(f"theta must be positive and finite, got {theta!r}")
    if theta == 1.0 or world_probability == 1.0:
        return world_probability
    odds = theta * world_probability / (1.0 - world_probability)
    q = odds / (1.0 + odds)
    if not (0.0 <= q <= 1.0):
        raise InputDataError(
            f"scaled probability {q!r} outside [0, 1] for theta {theta}"
        )
    return q


def _require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputDataError(f"{what} must be an integer, got {value!r}")
    return value


def _require_str(value: object, what: str) -> str:
    if not isinstance(value, str):
        raise InputDataError(f"{what} must be a string, got {value!r}")
    return value


def _require_float(value: object, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputDataError(f"{what} must be a number, got {value!r}") from None


def _fields(what: str, entry: object, *keys: str) -> list:
    """The values of `keys` in a spec entry; errors name the entry as `what`."""
    if not isinstance(entry, Mapping):
        raise InputDataError(f"{what} must be an object, got {entry!r}")
    if missing := [key for key in keys if key not in entry]:
        raise InputDataError(f"{what} is missing key {missing[0]!r}")
    return [entry[key] for key in keys]


@dataclass(frozen=True)
class StratumSpec:
    key: StratumKey
    world_size: int
    mention_probability: float

    def __post_init__(self) -> None:
        if _QUOTED & set(self.key.field_id):
            raise InputDataError(
                f"stratum {str(self.key)!r}: field_id holds {_QUOTED_NAMES}"
            )
        if years_outside(self.key.year):
            raise InputDataError(f"stratum {self.key}: {year_error(self.key.year)}")
        if self.world_size < 1:
            raise InputDataError(
                f"stratum {self.key}: world_size must be at least 1"
            )
        if self.world_size >= 2**63:  # so that `WorldSpec.sizes` holds it in int64
            raise InputDataError(f"stratum {self.key}: world_size must be less than 2^63")
        if not (0.0 <= self.mention_probability <= 1.0):
            raise InputDataError(
                f"stratum {self.key}: mention_probability outside [0, 1]"
            )


@dataclass(frozen=True)
class GroupSpec:
    label: str
    sizes: tuple[int, ...]
    theta: float

    def __post_init__(self) -> None:
        label = self.label
        if not label or label in RESERVED_LABELS or set(label) & {":", *_QUOTED}:
            raise InputDataError(
                f"group label {label!r} is empty, reserved, or holds ':', {_QUOTED_NAMES}"
            )
        if any(size < 0 for size in self.sizes):
            raise InputDataError(f"group {self.label!r} has a negative size")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise InputDataError(
                f"group {self.label!r}: theta must be positive and finite"
            )


@dataclass(frozen=True)
class WorldSpec:
    """A synthetic world: strata, groups with odds multipliers, a seed."""

    seed: int
    strata: tuple[StratumSpec, ...]
    groups: tuple[GroupSpec, ...]

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InputDataError("seed must be an integer")
        if not (0 <= self.seed < 2**64):
            raise InputDataError("seed must fit in 64 unsigned bits")
        if not self.strata:
            raise InputDataError("spec defines no strata")
        keys = [s.key for s in self.strata]
        if len(set(keys)) != len(keys):
            raise InputDataError("spec has duplicate strata")
        labels = [g.label for g in self.groups]
        if len(set(labels)) != len(labels):
            raise InputDataError("spec has duplicate group labels")
        for group in self.groups:
            if len(group.sizes) != len(self.strata):
                raise InputDataError(
                    f"group {group.label!r} has {len(group.sizes)} sizes "
                    f"for {len(self.strata)} strata"
                )
        # In Python integers, so that the int64 sums of `sizes` stay in range.
        for index, stratum in enumerate(self.strata):
            allocated = sum(g.sizes[index] for g in self.groups)
            if allocated > stratum.world_size:
                raise InputDataError(
                    f"stratum {stratum.key}: group sizes sum to {allocated}, "
                    f"exceeding world_size {stratum.world_size}"
                )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "WorldSpec":
        seed, strata_raw = _fields("spec", raw, "seed", "strata")
        seed = _require_int(seed, "seed")
        groups_raw = raw.get("groups", [])
        for name, entries in (("strata", strata_raw), ("groups", groups_raw)):
            if not isinstance(entries, list):
                raise InputDataError(f"spec {name} must be a list, got {entries!r}")
        strata = []
        for index, item in enumerate(strata_raw):
            what = f"spec stratum {index}"
            field_id, year, world_size, probability = _fields(
                what, item, "field_id", "year", "world_size", "mention_probability"
            )
            field_id = _require_str(field_id, f"{what}: field_id")
            if not field_id:
                raise InputDataError(f"{what}: field_id must be non-empty")
            strata.append(
                StratumSpec(
                    key=StratumKey(field_id, _require_int(year, f"{what}: year")),
                    world_size=_require_int(world_size, f"{what}: world_size"),
                    mention_probability=_require_float(
                        probability, f"{what}: mention_probability"
                    ),
                )
            )
        groups = []
        for index, item in enumerate(groups_raw):
            what = f"spec group {index}"
            label, sizes, theta = _fields(what, item, "label", "sizes", "theta")
            if isinstance(sizes, list):
                sizes = tuple(_require_int(s, f"{what}: size") for s in sizes)
            else:
                sizes = (_require_int(sizes, f"{what}: size"),) * len(strata)
            groups.append(
                GroupSpec(
                    label=_require_str(label, f"{what}: label"),
                    sizes=sizes,
                    theta=_require_float(theta, f"{what}: theta"),
                )
            )
        return cls(seed=seed, strata=tuple(strata), groups=tuple(groups))

    @classmethod
    def from_json(cls, path: Path | str) -> "WorldSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise InputDataError(f"cannot read spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputDataError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @cached_property
    def sizes(self) -> np.ndarray:
        """Papers per stratum, (groups + 1, strata): each group's, then the background's."""
        groups = np.array([g.sizes for g in self.groups], np.int64).reshape(-1, len(self.strata))
        world = np.array([s.world_size for s in self.strata], np.int64)
        sizes = np.vstack([groups, world - groups.sum(axis=0)])
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Mention probabilities in the rows of `sizes`; the background's is the world's."""
        world = [s.mention_probability for s in self.strata]
        rows = [[group_probability(p, g.theta) for p in world] for g in self.groups]
        probabilities = np.array([*rows, world], np.float64)
        probabilities.flags.writeable = False
        return probabilities


def generate_synthetic(spec: WorldSpec) -> tuple[Publications, list[tuple[str, str]]]:
    """Draw one synthetic world from `spec.seed`; identical specs give identical output.

    Per paper, mentioned-or-not comes from a Bernoulli draw at the group's
    odds-scaled probability (background papers use the world probability);
    mentioned papers get a positive mention count, unmentioned papers 0.
    Paper ids encode group, stratum, and index, so output order and bytes
    are deterministic.
    """
    rng = np.random.default_rng(spec.seed)
    paper_ids: list[str] = []
    field_ids: list[str] = []
    years: list[int] = []
    mentions: list[np.ndarray] = []
    pairs: list[tuple[str, str]] = []
    labels = [g.label for g in spec.groups] + ["bg"]
    numbers = [f"{j:05d}" for j in range(max(s.world_size for s in spec.strata))]
    for stratum, sizes, probabilities in zip(spec.strata, spec.sizes.T, spec.probabilities.T):
        field_id, year = stratum.key
        for label, size, q in zip(labels, sizes.tolist(), probabilities.tolist()):
            if size == 0:
                continue
            hits = rng.binomial(1, q, size=size)
            mentions.append(hits * (1 + rng.poisson(1.0, size=size)))
            ids = list(map(f"{label}:{field_id}:{year}:".__add__, numbers[:size]))
            paper_ids += ids
            field_ids += repeat(field_id, size)
            years += repeat(year, size)
            if label != "bg":
                pairs += zip(ids, repeat(label))
    return Publications(paper_ids, field_ids, years, np.concatenate(mentions)), pairs


def write_synthetic(
    table: Publications,
    pairs: Sequence[tuple[str, str]],
    out_dir: Path | str,
) -> tuple[Path, Path]:
    """Write `table` and `pairs` as publications.csv and membership.csv.

    The files are in the ingestion format. A failed write raises
    `InputDataError`.
    """
    out = Path(out_dir)
    pub_path = out / "publications.csv"
    mem_path = out / "membership.csv"
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(pub_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("paper_id,field_id,year,mentions\n")
            fh.writelines(map("%s,%s,%s,%s\n".__mod__, table))
        with open(mem_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("paper_id,group_id\n")
            fh.writelines(map("%s,%s\n".__mod__, pairs))
    except OSError as exc:
        raise InputDataError(f"cannot write synthetic data: {exc}") from exc
    return pub_path, mem_path


def expected_profiles(
    spec: WorldSpec,
) -> tuple[CountProfile, dict[str, CountProfile]]:
    """Expected (non-integer) cell counts implied by the spec.

    World cells accumulate the group cells term by term, so the world
    dominates every group cell exactly even in floating point.
    """
    order = sorted(range(len(spec.strata)), key=lambda i: spec.strata[i].key)
    keys = tuple(spec.strata[i].key for i in order)
    sizes, q = spec.sizes[:, order], spec.probabilities[:, order]
    cells = sizes[..., None] * np.stack([q, 1.0 - q], -1)
    world = cells[-1].copy()
    groups = {}
    for group, group_cells, held in zip(spec.groups, cells, sizes > 0):
        world += group_cells
        if held.any():
            groups[group.label] = CountProfile._of(
                group.label, tuple(compress(keys, held)), group_cells[held]
            )
    return CountProfile._of(WORLD_LABEL, keys, world), groups


def true_indicator_values(
    spec: WorldSpec,
    kinds: Sequence[IndicatorKind] = tuple(IndicatorKind),
) -> dict[str, dict[str, float]]:
    """Analytic plug-in truths: indicators evaluated on expected counts."""
    world, groups = expected_profiles(spec)
    truths: dict[str, dict[str, float]] = {}
    for label in sorted(groups):
        profile = groups[label]
        truths[label] = {
            str(kind): INDICATORS[kind](profile, world).value
            for kind in kinds
        }
    return truths


def _replication_draws(
    spec: WorldSpec, reps: range
) -> tuple[np.ndarray, np.ndarray]:
    """Mentioned-count draws: per-group (G, len(reps), strata) and world (len(reps), strata).

    Row k holds replication ``reps[k]``, drawn from its own generator, so
    any block of replications gives the same rows as a larger run.
    """
    sizes, probabilities = spec.sizes, spec.probabilities
    n_groups, n_strata = len(sizes) - 1, sizes.shape[1]
    group_draws = np.empty((n_groups, len(reps), n_strata))
    world_draws = np.empty((len(reps), n_strata))
    for row, i in enumerate(reps):
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(i,))
        )
        total = np.zeros(n_strata)
        for g in range(n_groups):
            draws = rng.binomial(sizes[g], probabilities[g])
            group_draws[g, row] = draws
            total += draws
        world_draws[row] = total + rng.binomial(sizes[-1], probabilities[-1])
    return group_draws, world_draws


def _replication_estimates(
    spec: WorldSpec, reps: range
) -> Iterator[tuple[str, dict[IndicatorKind, Estimate]]]:
    """EMNPC, MNPC and MHq of the replications `reps`, one group at a time.

    Yields each group with papers and its (len(reps),) estimates: EMNPC
    and MHq on the raw draws, MNPC on draws corrected by the rule that
    `continuity_correct` applies to profiles, as the report pipeline
    computes them.
    """
    group_draws, world_draws = _replication_draws(spec, reps)
    n = np.array([s.world_size for s in spec.strata], dtype=np.float64)
    sizes = spec.sizes[:-1]
    present = (sizes > 0).sum(axis=0)
    for group, m, draws in zip(spec.groups, sizes.astype(np.float64), group_draws):
        in_group = m > 0
        if not in_group.any():
            continue
        m = m[in_group]
        a = draws[:, in_group]
        c = world_draws[:, in_group]
        fixed = group_correction(a, m, c)
        added = world_correction(c, present[in_group])
        a_c, m_c = a + 0.5 * fixed, m + fixed
        c_c, n_c = c + added, n[in_group] + 2 * added
        # mnpc_arrays sets the peak memory: keep only its inputs alive, only for it.
        del fixed, added
        mnpc = mnpc_arrays(a_c, m_c, c_c, n_c)
        # The report's mnpc refuses a corrected group cell above its world cell.
        refused = ((a_c > c_c) | (m_c - a_c > n_c - c_c)).any(axis=-1)
        del a_c, m_c, c_c, n_c
        mnpc = _estimate(*mnpc[:3], mnpc.degenerate | refused, mnpc.strata_used)
        yield group.label, {
            IndicatorKind.EMNPC: emnpc_arrays(a, m, world_draws, n),
            IndicatorKind.MNPC: mnpc,
            IndicatorKind.MHQ: mh_quotient_arrays(a, m - a, c, n[in_group] - c),
        }


def _block_counts(
    spec: WorldSpec, truths: dict[str, dict[str, float]], reps: range
) -> dict[tuple[str, str], np.ndarray]:
    """Covered, used and degenerate counts of `reps` per group and indicator."""
    counts = {}
    for label, estimates in _replication_estimates(spec, reps):
        for kind, (_, lower, upper, degenerate, _) in estimates.items():
            truth = truths[label][str(kind)]
            usable = ~degenerate
            covered = ((lower[usable] <= truth) & (truth <= upper[usable])).sum()
            counts[label, str(kind)] = np.array(
                [covered, usable.sum(), degenerate.sum()], dtype=np.int64
            )
    return counts


def coverage_experiment(spec: WorldSpec, replications: int) -> dict:
    """Estimate CI coverage for EMNPC, MNPC, and MHq under the spec.

    Each replication redraws every group and the background from the spec's
    probabilities; a replication's CI covers when it contains the analytic
    truth. Replications where an indicator is degenerate (a zero pooled
    numerator or denominator, a zero equalized proportion, or for MNPC a
    corrected group cell above its world cell, which the report's `mnpc`
    refuses) are excluded from that indicator's coverage and reported in
    the ``degenerate`` count. MNPC runs on continuity-corrected draws,
    EMNPC and MHq on raw draws, matching the reporting pipeline.

    Replications are drawn and evaluated in blocks of `_BLOCK`, on at most
    one thread per CPU, and only the blocks' counts are summed. Replication
    i always draws from spawn key i, so the result depends on neither the
    block size nor the thread count.

    The nominal level is 0.95, the level the intervals are built for.
    """
    if replications < 100:
        raise InputDataError(
            f"at least 100 replications are required, got {replications}"
        )
    if not spec.groups:
        raise InputDataError("coverage requires at least one group")

    start = time.perf_counter()
    # Computes spec.sizes and spec.probabilities once, before the threads share them.
    truths = true_indicator_values(spec, _VALIDITY_KINDS)
    blocks = [
        range(first, min(first + _BLOCK, replications))
        for first in range(0, replications, _BLOCK)
    ]
    threads = min(os.cpu_count() or 1, len(blocks))
    totals: dict[tuple[str, str], np.ndarray] = {}
    with ThreadPoolExecutor(threads) as pool:
        for counts in pool.map(partial(_block_counts, spec, truths), blocks):
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
    out_groups: dict[str, dict] = {}
    for (label, kind), counts in totals.items():
        covered, used, degenerate = map(int, counts)
        out_groups.setdefault(label, {})[kind] = {
            "truth": truths[label][kind],
            "coverage": covered / used if used else float("nan"),
            "covered": covered,
            "used": used,
            "degenerate": degenerate,
        }
    logger.info(
        "synth.coverage_experiment %.3f s, %d replications, %d blocks, %d threads",
        time.perf_counter() - start, replications, len(blocks), threads,
    )
    return {
        "nominal": _NOMINAL,
        "replications": replications,
        "seed": spec.seed,
        "groups": out_groups,
    }


def convergent_validity_run(spec: WorldSpec) -> dict:
    """Generate one world and report EMNPC, MNPC, and MHq per year.

    Each synthetic year runs through the same filter-and-compute pipeline
    as CSV reports, and adjacent groups (in spec order) are compared with
    interval-overlap verdicts. Section shapes match `run_report`'s JSON.
    """
    if not spec.groups:
        raise InputDataError("validity run requires at least one group")
    table, pairs = generate_synthetic(spec)
    world, groups = build_profiles(table, pairs)
    adjacent = [
        (spec.groups[i].label, spec.groups[i + 1].label)
        for i in range(len(spec.groups) - 1)
    ]

    def in_year(profile: CountProfile, year: int) -> CountProfile:
        return profile._take(np.array([key.year == year for key in profile.strata()], bool))

    years_out: dict[str, dict] = {}
    all_notes: list[str] = []
    for year in sorted({key.year for key in world.strata()}):
        world_y = in_year(world, year)
        groups_y = {
            label: in_year(profile, year)
            for label, profile in groups.items()
        }
        filtered = apply_filters(world_y, groups_y, FilterConfig())
        active = {
            label: profile
            for label, profile in filtered.groups.items()
            if len(profile) > 0
        }
        rows, notes = compute_rows(filtered.world, active, _VALIDITY_KINDS)
        pairs_here = [
            (a, b) for a, b in adjacent if a in rows and b in rows
        ]
        for a, b in adjacent:
            if (a, b) not in pairs_here:
                notes.append(
                    f"comparison {a} vs {b} skipped (absent in year {year})"
                )
        comparisons, cmp_notes = build_comparisons(
            rows, pairs_here, _VALIDITY_KINDS
        )
        notes.extend(cmp_notes)
        years_out[str(year)] = {
            "groups": rows_payload(rows),
            "comparisons": comparisons,
            "notes": notes,
        }
        all_notes.extend(notes)

    return {
        "years": years_out,
        "audit": {
            "seed": spec.seed,
            "groups": [g.label for g in spec.groups],
            "strata": len(spec.strata),
            "notes": all_notes,
        },
    }
