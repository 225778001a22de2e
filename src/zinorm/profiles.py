"""Stratified count profiles and the filtering/correction steps applied to them.

A profile maps (field, year) strata to mentioned / not-mentioned paper counts
for one population: the whole world of publications or a named group. The
world profile always contains the groups, so every downstream computation can
rely on group cells being dominated by the matching world cells.

Profiles are treated as immutable once built: every transformation here
returns new objects and never mutates its inputs, so profiles can be shared
freely across threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DegenerateComputationError, InputDataError

logger = logging.getLogger(__name__)

DEFAULT_YEAR_RANGE = (1900, 2100)

#: Reserved population label; membership files may not define a group with it.
WORLD_LABEL = "world"


@dataclass(frozen=True, order=True)
class StratumKey:
    """A (field, publication year) stratum identifier.

    Ordering is lexicographic on (field_id, year) so that sorted iteration
    over strata is deterministic everywhere.
    """

    field_id: str
    year: int

    def __post_init__(self) -> None:
        if not self.field_id:
            raise InputDataError("stratum field_id must be non-empty")

    def __str__(self) -> str:
        return f"{self.field_id}/{self.year}"


@dataclass(frozen=True)
class CellCounts:
    """Mentioned / not-mentioned paper counts for one stratum.

    Counts are stored as floats because continuity correction introduces
    half-integer cells; raw profiles always hold whole numbers.
    """

    mentioned: float
    not_mentioned: float

    def __post_init__(self) -> None:
        if self.mentioned < 0 or self.not_mentioned < 0:
            raise InputDataError("cell counts must be non-negative")

    @property
    def total(self) -> float:
        return self.mentioned + self.not_mentioned

    @property
    def proportion_mentioned(self) -> float:
        if self.total == 0:
            raise DegenerateComputationError("stratum has no papers")
        return self.mentioned / self.total

    def add(self, mentioned: float, not_mentioned: float) -> "CellCounts":
        return CellCounts(self.mentioned + mentioned, self.not_mentioned + not_mentioned)


@dataclass(frozen=True)
class PublicationRecord:
    """One paper's assignment to a stratum, with its mention count."""

    paper_id: str
    field_id: str
    year: int
    mentions: int

    @property
    def stratum(self) -> StratumKey:
        return StratumKey(self.field_id, self.year)

    @property
    def is_mentioned(self) -> bool:
        return self.mentions > 0


class CountProfile:
    """An immutable label + {stratum: cells} mapping.

    Iteration helpers always yield strata in sorted key order, so any output
    derived from a profile is deterministic regardless of construction order.
    """

    __slots__ = ("label", "_cells")

    def __init__(self, label: str, cells: Mapping[StratumKey, CellCounts]):
        if not label:
            raise InputDataError("profile label must be non-empty")
        self.label = label
        self._cells = dict(sorted(cells.items()))

    @property
    def cells(self) -> dict[StratumKey, CellCounts]:
        return dict(self._cells)

    def __contains__(self, key: StratumKey) -> bool:
        return key in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, key: StratumKey) -> CellCounts:
        return self._cells[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountProfile):
            return NotImplemented
        return self.label == other.label and self._cells == other._cells

    def __repr__(self) -> str:
        return f"CountProfile({self.label!r}, {len(self._cells)} strata)"

    def strata(self) -> tuple[StratumKey, ...]:
        return tuple(self._cells)

    def items(self) -> Iterator[tuple[StratumKey, CellCounts]]:
        return iter(self._cells.items())

    @property
    def total_papers(self) -> float:
        return sum(c.total for c in self._cells.values())

    @property
    def total_mentioned(self) -> float:
        return sum(c.mentioned for c in self._cells.values())

    def restrict(self, keep: Iterable[StratumKey]) -> "CountProfile":
        """Return a copy containing only the strata in `keep`."""
        keep_set = set(keep)
        return CountProfile(
            self.label, {k: v for k, v in self._cells.items() if k in keep_set}
        )

    def with_cells(self, overrides: Mapping[StratumKey, CellCounts]) -> "CountProfile":
        merged = dict(self._cells)
        merged.update(overrides)
        return CountProfile(self.label, merged)


@dataclass(frozen=True)
class FilterConfig:
    """Stratum-level filtering policy applied before computing indicators."""

    min_stratum_papers: int = 10
    restrict_to_group_strata: str | None = None
    zero_handling: str = "correct"

    def __post_init__(self) -> None:
        if self.min_stratum_papers < 0:
            raise InputDataError("min_stratum_papers must be non-negative")
        if self.zero_handling not in ("correct", "drop"):
            raise InputDataError(
                f"zero_handling must be 'correct' or 'drop', got {self.zero_handling!r}"
            )


@dataclass(frozen=True)
class FilterResult:
    world: CountProfile
    groups: dict[str, CountProfile]
    removed: tuple[tuple[StratumKey, str], ...]

    @property
    def removed_strata(self) -> tuple[StratumKey, ...]:
        return tuple(k for k, _ in self.removed)


@dataclass(frozen=True)
class CorrectionResult:
    world: CountProfile
    groups: dict[str, CountProfile]
    notes: tuple[str, ...]


def build_profiles(
    records: Sequence[PublicationRecord],
    memberships: Sequence[tuple[str, str]],
    *,
    year_range: tuple[int, int] = DEFAULT_YEAR_RANGE,
) -> tuple[CountProfile, dict[str, CountProfile]]:
    """Aggregate per-paper records into world and group count profiles.

    Parameters
    ----------
    records:
        Paper-to-stratum assignments. A paper may appear under several
        strata (multi-field papers) but only once per stratum.
    memberships:
        (paper_id, group_id) pairs. Every cited paper must exist in
        `records`; a paper contributes to a group in every stratum it is
        assigned to. Duplicate pairs are collapsed with a warning.
    year_range:
        Inclusive bounds on accepted publication years.

    Returns
    -------
    (world, groups):
        The world profile over all records plus one profile per group
        label. Profiles compare equal across permutations of the inputs.

    Raises
    ------
    InputDataError
        On duplicate (paper, stratum) assignments, years outside
        `year_range`, negative mention counts, unknown paper ids in
        `memberships`, or a group labelled with the reserved world label.
    """
    lo, hi = year_range
    if lo > hi:
        raise InputDataError("year_range lower bound exceeds upper bound")

    world_cells: dict[StratumKey, CellCounts] = {}
    paper_strata: dict[str, list[tuple[StratumKey, bool]]] = {}
    seen: set[tuple[str, StratumKey]] = set()

    for rec in records:
        if not rec.paper_id:
            raise InputDataError("publication record has empty paper_id")
        if rec.mentions < 0:
            raise InputDataError(
                f"paper {rec.paper_id!r} has negative mention count {rec.mentions}"
            )
        if not (lo <= rec.year <= hi):
            raise InputDataError(
                f"paper {rec.paper_id!r} has year {rec.year} outside [{lo}, {hi}]"
            )
        key = rec.stratum
        pair = (rec.paper_id, key)
        if pair in seen:
            raise InputDataError(
                f"paper {rec.paper_id!r} assigned to stratum {key} more than once"
            )
        seen.add(pair)
        mentioned = rec.is_mentioned
        cell = world_cells.get(key, CellCounts(0, 0))
        world_cells[key] = cell.add(int(mentioned), int(not mentioned))
        paper_strata.setdefault(rec.paper_id, []).append((key, mentioned))

    group_cells: dict[str, dict[StratumKey, CellCounts]] = {}
    seen_pairs: set[tuple[str, str]] = set()
    duplicates = 0
    for paper_id, group_id in memberships:
        if not group_id:
            raise InputDataError("membership row has empty group_id")
        if group_id == WORLD_LABEL:
            raise InputDataError(
                f"group label {WORLD_LABEL!r} is reserved for the world profile"
            )
        if (paper_id, group_id) in seen_pairs:
            duplicates += 1
            continue
        seen_pairs.add((paper_id, group_id))
        strata = paper_strata.get(paper_id)
        if strata is None:
            raise InputDataError(
                f"membership references unknown paper {paper_id!r}"
            )
        cells = group_cells.setdefault(group_id, {})
        for key, mentioned in strata:
            cell = cells.get(key, CellCounts(0, 0))
            cells[key] = cell.add(int(mentioned), int(not mentioned))

    if duplicates:
        logger.warning("collapsed %d duplicate membership pair(s)", duplicates)

    world = CountProfile(WORLD_LABEL, world_cells)
    groups = {
        label: CountProfile(label, cells)
        for label, cells in sorted(group_cells.items())
    }
    return world, groups


def apply_filters(
    world: CountProfile,
    groups: Mapping[str, CountProfile],
    config: FilterConfig,
) -> FilterResult:
    """Drop strata per `config`, returning filtered profiles plus an audit trail.

    Filters run in a fixed order: restriction to a reference group's strata,
    then the minimum world stratum size, then (only under the ``drop`` policy)
    removal of strata whose world row has an empty mentioned or not-mentioned
    cell. Each removal is recorded as (stratum, reason).

    Raises
    ------
    InputDataError
        If `config.restrict_to_group_strata` names an unknown group.
    DegenerateComputationError
        If no strata remain after filtering.
    """
    removed: list[tuple[StratumKey, str]] = []
    keep = list(world.strata())

    if config.restrict_to_group_strata is not None:
        ref = groups.get(config.restrict_to_group_strata)
        if ref is None:
            raise InputDataError(
                f"unknown reference group {config.restrict_to_group_strata!r}"
            )
        ref_strata = set(ref.strata())
        still = []
        for key in keep:
            if key in ref_strata:
                still.append(key)
            else:
                removed.append(
                    (key, f"outside the strata of group {ref.label!r}")
                )
        keep = still

    still = []
    for key in keep:
        total = world[key].total
        if total < config.min_stratum_papers:
            removed.append(
                (
                    key,
                    f"world stratum has {total:g} papers, fewer than "
                    f"{config.min_stratum_papers}",
                )
            )
        else:
            still.append(key)
    keep = still

    if config.zero_handling == "drop":
        still = []
        for key in keep:
            cell = world[key]
            if cell.mentioned == 0:
                removed.append((key, "world stratum has no mentioned papers"))
            elif cell.not_mentioned == 0:
                removed.append((key, "world stratum has no unmentioned papers"))
            else:
                still.append(key)
        keep = still

    if not keep:
        raise DegenerateComputationError("no strata remain after filtering")

    filtered_world = world.restrict(keep)
    filtered_groups = {
        label: profile.restrict(keep) for label, profile in groups.items()
    }
    return FilterResult(filtered_world, filtered_groups, tuple(removed))


def continuity_correct(
    world: CountProfile,
    groups: Mapping[str, CountProfile],
) -> CorrectionResult:
    """Apply 0.5 continuity corrections wherever a mentioned cell is empty.

    Two situations trigger a correction in a stratum:

    * The world has no mentioned papers there. Every group present in the
      stratum gains 0.5 mentioned and 0.5 not-mentioned papers, and the
      world cell gains 0.5 of each per corrected group (at least one), so
      the corrected world still dominates the sum of its corrected groups.
    * The world has mentioned papers but some group present there does
      not. Only that group's cell is corrected.

    Already-positive cells are never touched, so applying the correction
    twice changes nothing. Each adjusted cell is reported in `notes`.
    """
    notes: list[str] = []
    world_over: dict[StratumKey, CellCounts] = {}
    group_over: dict[str, dict[StratumKey, CellCounts]] = {g: {} for g in groups}

    for key, wcell in world.items():
        present = sorted(
            label
            for label, profile in groups.items()
            if key in profile and profile[key].total > 0
        )
        if wcell.mentioned == 0:
            increments = max(1, len(present))
            world_over[key] = wcell.add(0.5 * increments, 0.5 * increments)
            notes.append(
                f"stratum {key}: world mentioned cell corrected by "
                f"{0.5 * increments:g}"
            )
            for label in present:
                cell = groups[label][key]
                group_over[label][key] = cell.add(0.5, 0.5)
                notes.append(
                    f"stratum {key}: group {label!r} mentioned cell corrected by 0.5"
                )
        else:
            for label in present:
                cell = groups[label][key]
                if cell.mentioned == 0:
                    group_over[label][key] = cell.add(0.5, 0.5)
                    notes.append(
                        f"stratum {key}: group {label!r} mentioned cell "
                        "corrected by 0.5"
                    )

    corrected_world = world.with_cells(world_over)
    corrected_groups = {
        label: profile.with_cells(group_over[label])
        for label, profile in groups.items()
    }
    return CorrectionResult(corrected_world, corrected_groups, tuple(notes))
