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
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DegenerateComputationError, InputDataError
from .indicators import (
    Estimate,
    IndicatorKind,
    _emnpc,
    _equalized,
    _estimate,
    mh_quotient_arrays,
    mnpc_arrays,
)
from .profiles import (
    WORLD_LABEL,
    CountProfile,
    FilterConfig,
    Membership,
    Publications,
    StratumKey,
    _Spans,
    _blocks,
    _lines,
    _put,
    apply_filters,
    build_profiles,
    corrected_cells,
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

#: Replications drawn and evaluated together by `coverage_experiment`: as
#: many as keep a block near `_BLOCK_CELLS` (replications x strata) cells,
#: at least 1 and at most `_BLOCK_ROWS`, so a 2000-stratum spec gets 50 rows
#: a block and a 10-stratum spec 200. At 100k cells one (rows, strata)
#: float64 buffer takes 0.8 MB. On a 2000-stratum spec with 2000
#: replications and 2 CPUs, 50-row blocks through reused buffers took a
#: median 1.96 s, 69 MiB peak RSS and about 3.5k minor page faults, against
#: 2.85 s, 157 MiB and 0.5-0.6M for 200-row blocks that allocated their
#: temporaries per group.
_BLOCK_CELLS = 100_000
_BLOCK_ROWS = 200

#: Float64 and bool (rows, strata) buffers that one group's estimates use:
#: the group's and world's raw and corrected cells, then the scratch that
#: `mnpc_arrays` needs (the most of the array core).
_FLOATS, _FLAGS = 14, 3


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
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputDataError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # An integer past the float range reads as infinite.
        return math.inf if value > 0 else -math.inf


def _encodes(text: str) -> bool:
    """Whether `text` encodes as UTF-8, which a lone surrogate does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
        if not _encodes(self.key.field_id):
            raise InputDataError(f"stratum {str(self.key)!r}: field_id does not encode as UTF-8")
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
        if not _encodes(label):
            raise InputDataError(f"group label {label!r} does not encode as UTF-8")
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


def _numbered(prefixes: list[str], counts: np.ndarray) -> _Spans:
    """Each prefix followed by 0, 1, ..., its count - 1, zero-padded to five digits, in turn."""
    block = np.repeat(np.arange(len(counts)), counts)
    index = np.arange(len(block)) - (np.cumsum(counts) - counts)[block]
    prefix, number = _Spans.of(prefixes), _Spans.digits(np.arange(counts.max(initial=0)), pad=5)
    width = prefix.width[block] + number.width[index]
    ids = _Spans(np.empty(width.sum(), np.uint8), np.cumsum(width) - width, width)
    for rows in _blocks(len(ids)):
        _put(ids.buf, ids.start[rows], [prefix[block[rows]], number[index[rows]]])
    return ids


def generate_synthetic(spec: WorldSpec) -> tuple[Publications, Membership]:
    """Draw one synthetic world from `spec.seed`; identical specs give identical output.

    Per paper, mentioned-or-not comes from a Bernoulli draw at the group's
    odds-scaled probability (background papers use the world probability);
    mentioned papers get a positive mention count, unmentioned papers 0.
    Paper ids encode group, stratum, and index, so output order and bytes
    are deterministic. Both tables hold their ids as spans of UTF-8 bytes;
    the membership table lists each group's papers, in the order of the
    publications table.
    """
    rng = np.random.default_rng(spec.seed)
    mentions: list[np.ndarray] = []
    for sizes, probabilities in zip(spec.sizes.T.tolist(), spec.probabilities.T.tolist()):
        for size, q in zip(sizes, probabilities):
            if size:
                hits = rng.binomial(1, q, size=size)
                mentions.append(hits * (1 + rng.poisson(1.0, size=size)))
    # Rows run stratum by stratum, and within a stratum group by group, then the background.
    labels = [g.label for g in spec.groups] + ["bg"]
    counts = spec.sizes.T.ravel()
    prefixes = [f"{label}:{s.key.field_id}:{s.key.year}:" for s in spec.strata for label in labels]
    paper_id = _numbered(prefixes, counts)
    stratum = np.repeat(np.arange(len(spec.strata)), [s.world_size for s in spec.strata])
    field_id = _Spans.of([s.key.field_id for s in spec.strata])[stratum]
    year = np.array([s.key.year for s in spec.strata])[stratum]
    row_label = np.repeat(np.arange(len(counts)) % len(labels), counts)
    in_group = row_label < len(spec.groups)
    members = Membership(paper_id[in_group], _Spans.of(labels)[row_label[in_group]])
    return Publications(paper_id, field_id, year, np.concatenate(mentions)), members


def write_synthetic(
    table: Publications,
    pairs: Membership | Sequence[tuple[str, str]],
    out_dir: Path | str,
) -> tuple[Path, Path]:
    """Write `table` and `pairs`, a `Membership` table or any sequence of pairs, as CSV files.

    publications.csv and membership.csv are in the ingestion format,
    written from byte columns a block of rows at a time under temporary
    names in `out_dir`, and renamed once both are whole. A failed write,
    or an id that does not encode as UTF-8, leaves the files in `out_dir`
    as they were and raises `InputDataError`.
    """
    out = Path(out_dir)
    files = {
        out / "publications.csv": (b"paper_id,field_id,year,mentions\n", table),
        out / "membership.csv": (b"paper_id,group_id\n", Membership.of(pairs)),
    }
    temporary: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, (header, rows) in files.items():
            temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            with open(temp, "xb") as fh:
                temporary.append(temp)
                fh.write(header)
                for block in _blocks(len(rows)):
                    fh.write(_lines(rows._span_columns(block)))
        for temp, path in zip(temporary, files):
            os.replace(temp, path)
    except OSError as exc:
        raise InputDataError(f"cannot write synthetic data: {exc}") from exc
    finally:
        for temp in temporary:
            temp.unlink(missing_ok=True)
    return tuple(files)


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


def _block_rows(strata: int) -> int:
    """Replications in one block of `coverage_experiment` over `strata` strata."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // strata))


class _Workspace:
    """The buffers of blocks of up to `rows` replications, allocated once.

    A coverage worker thread runs all its blocks through one workspace, so
    that no block allocates arrays of its own size: `draws` and `cells`
    return C-order views of the first rows of the same memory every time.
    """

    def __init__(self, spec: WorldSpec, rows: int) -> None:
        groups, strata = len(spec.groups), len(spec.strata)
        self._group_draws = np.empty((groups, rows, strata))
        self._world_draws = np.empty((rows, strata))
        self._floats = np.empty((_FLOATS, rows * strata))
        self._flags = np.empty((_FLAGS, rows * strata), dtype=bool)

    def draws(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Group draws (G, rows, strata) and world draws (rows, strata)."""
        return self._group_draws[:, :rows], self._world_draws[:rows]

    def cells(self, rows: int, strata: int) -> tuple[list, list]:
        """`_FLOATS` float64 and `_FLAGS` bool (rows, strata) arrays."""
        size = rows * strata
        floats = [x[:size].reshape(rows, strata) for x in self._floats]
        flags = [x[:size].reshape(rows, strata) for x in self._flags]
        return floats, flags


def _replication_draws(
    spec: WorldSpec, reps: range, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Mentioned-count draws: per-group (G, len(reps), strata) and world (len(reps), strata).

    Row k holds replication ``reps[k]``, drawn from its own generator, so
    any block of replications gives the same rows as a larger run. `out`,
    if given, is the pair of arrays to fill; otherwise they are allocated.
    """
    sizes, probabilities = spec.sizes, spec.probabilities
    n_groups, n_strata = len(sizes) - 1, sizes.shape[1]
    group_draws, world_draws = out or (
        np.empty((n_groups, len(reps), n_strata)),
        np.empty((len(reps), n_strata)),
    )
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
    spec: WorldSpec, reps: range, work: _Workspace | None = None
) -> Iterator[tuple[str, dict[IndicatorKind, Estimate]]]:
    """EMNPC, MNPC and MHq of the replications `reps`, one group at a time.

    Yields each group with papers and its (len(reps),) estimates: EMNPC
    and MHq on the raw draws, MNPC on draws corrected by `corrected_cells`,
    the rule that `continuity_correct` applies to profiles, as the report
    pipeline computes them. The intermediates live in `work` (a new
    workspace if None); the estimates do not, so they outlive it. Every
    cell array is C-order, so each replication's sums over the strata run
    in the same order in every block, and its estimates are the same bits
    whatever block holds it.
    """
    rows, strata = len(reps), len(spec.strata)
    work = work or _Workspace(spec, rows)
    group_draws, world_draws = _replication_draws(spec, reps, work.draws(rows))
    n = np.array([s.world_size for s in spec.strata], dtype=np.float64)
    sizes = spec.sizes[:-1]
    present = (sizes > 0).sum(axis=0)
    # EMNPC's world side is the same for every group.
    floats, _ = work.cells(rows, strata)
    p_w, world_papers = _equalized(world_draws, n, out=floats[0]), n.sum()
    for group, m, draws in zip(spec.groups, sizes.astype(np.float64), group_draws):
        held = np.flatnonzero(m)
        if not len(held):
            continue
        floats, flags = work.cells(rows, len(held))
        a, c, b, d, a_c, b_c, c_c, d_c, *scratch = floats
        if len(held) < strata:
            m, n_held, present_held = m[held], n[held], present[held]
            # mode="clip" (the indices are in range) lets take fill `out` unbuffered.
            a = np.take(draws, held, axis=1, out=a, mode="clip")
            c = np.take(world_draws, held, axis=1, out=c, mode="clip")
        else:
            a, c, n_held, present_held = draws, world_draws, n, present
        b = np.subtract(m, a, out=b)
        d = np.subtract(n_held, c, out=d)
        emnpc = _emnpc(
            _equalized(a, m, out=scratch[0]), m.sum(), p_w, world_papers, len(held)
        )
        # a+b+c+d is m+n exactly, as long as the cells are integers below 2**53.
        mhq = mh_quotient_arrays(
            a, b, c, d, n=m + n_held, out=(*scratch[:5], *flags[:2])
        )
        a_c, b_c, c_c, d_c, _ = corrected_cells(
            a, b, c, d, present_held, out=(a_c, b_c, c_c, d_c, *scratch[:2], *flags)
        )
        # The report's mnpc refuses a corrected group cell above its world cell.
        refused, flag = flags[:2]
        refused = np.greater(a_c, c_c, out=refused)
        refused |= np.greater(b_c, d_c, out=flag)
        refused = refused.any(axis=-1)
        m_c = np.add(a_c, b_c, out=b_c)
        n_c = np.add(c_c, d_c, out=d_c)
        mnpc = mnpc_arrays(a_c, m_c, c_c, n_c, out=(*scratch, *flags[:2]))
        mnpc = _estimate(*mnpc[:3], mnpc.degenerate | refused, mnpc.strata_used)
        yield group.label, {
            IndicatorKind.EMNPC: emnpc,
            IndicatorKind.MNPC: mnpc,
            IndicatorKind.MHQ: mhq,
        }


def _block_counts(
    spec: WorldSpec,
    truths: dict[str, dict[str, float]],
    reps: range,
    work: _Workspace | None = None,
) -> dict[tuple[str, str], np.ndarray]:
    """Covered, used and degenerate counts of `reps` per group and indicator."""
    counts = {}
    for label, estimates in _replication_estimates(spec, reps, work):
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

    Replications are drawn and evaluated in blocks of about `_BLOCK_CELLS`
    cells (`_block_rows`), on at most one thread per CPU; each thread runs
    its share of the blocks through one `_Workspace`, and only the blocks'
    counts are summed. Replication i always draws from spawn key i, and its
    estimates are the same bits in any block, so the result depends on
    neither the block size nor the thread count.

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
    rows = _block_rows(len(spec.strata))
    blocks = [
        range(first, min(first + rows, replications))
        for first in range(0, replications, rows)
    ]
    threads = min(os.cpu_count() or 1, len(blocks))

    def share(thread: int) -> list[dict[tuple[str, str], np.ndarray]]:
        work = _Workspace(spec, rows)
        return [_block_counts(spec, truths, reps, work) for reps in blocks[thread::threads]]

    totals: dict[tuple[str, str], np.ndarray] = {}
    with ThreadPoolExecutor(threads) as pool:
        for counts in chain.from_iterable(pool.map(share, range(threads))):
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
        "synth.coverage_experiment %.3f s, %d replications, %d blocks of %d rows, "
        "%d threads",
        time.perf_counter() - start, replications, len(blocks), rows, threads,
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
