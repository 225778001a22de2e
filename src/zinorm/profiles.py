"""Stratified count profiles and the filtering/correction steps applied to them.

A profile holds one population's sorted (field, year) strata and a read-only
array of their mentioned / not-mentioned paper counts; the population is the
whole world of publications or a named group. The world profile always
contains the groups, so every downstream computation can rely on group cells
being dominated by the matching world cells.

Profiles are immutable once built: every transformation here returns new
profiles and never mutates its inputs, so profiles can be shared freely
across threads.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateComputationError, InputDataError

logger = logging.getLogger(__name__)

DEFAULT_YEAR_RANGE = (1900, 2100)

#: Reserved population label; membership files may not define a group with it.
WORLD_LABEL = "world"


def years_outside(year):
    """The year rule, elementwise: true where `year` is outside `DEFAULT_YEAR_RANGE`."""
    return (year < DEFAULT_YEAR_RANGE[0]) | (year > DEFAULT_YEAR_RANGE[1])


def year_error(year) -> str:
    return "year {} outside [{}, {}]".format(year, *DEFAULT_YEAR_RANGE)


class StratumKey(NamedTuple("_Stratum", [("field_id", str), ("year", int)])):
    """A (field, publication year) stratum identifier.

    Ordering is lexicographic on (field_id, year) so that sorted iteration
    over strata is deterministic everywhere. Keys are tuples, so hashing,
    equality and ordering run in C.
    """

    __slots__ = ()

    def __new__(cls, field_id: str, year: int) -> "StratumKey":
        if not field_id:
            raise InputDataError("stratum field_id must be non-empty")
        return super().__new__(cls, field_id, year)

    @classmethod
    def _make(cls, iterable: Iterable) -> "StratumKey":
        return cls(*iterable)

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


class PublicationRecord(NamedTuple):
    """One paper's assignment to a stratum, as a `Publications` table yields it."""

    paper_id: str
    field_id: str
    year: int
    mentions: int


#: A record from a row tuple, skipping `_make`'s length check.
_record = partial(tuple.__new__, PublicationRecord)


class _Spans:
    """Strings as spans of UTF-8 bytes: string i is `buf[start[i]:start[i] + width[i]]`."""

    def __init__(self, buf: np.ndarray, start: np.ndarray, width: np.ndarray):
        self.buf, self.start, self.width = buf, start, width

    @classmethod
    def of(cls, strings: "Sequence[str] | _Spans") -> "_Spans":
        """`strings` as spans of their UTF-8 bytes; spans are returned as they are."""
        if isinstance(strings, _Spans):
            return strings
        data = "".join(strings).encode("utf-8", "surrogatepass")
        width = np.fromiter(map(len, strings), np.int64, len(strings))
        if len(data) != width.sum():  # Not all ASCII: count bytes, not characters.
            utf8 = (s.encode("utf-8", "surrogatepass") for s in strings)
            width = np.fromiter(map(len, utf8), np.int64, len(strings))
        return cls(np.frombuffer(data, np.uint8), np.cumsum(width) - width, width)

    @classmethod
    def digits(cls, values: np.ndarray, pad: int = 1) -> "_Spans":
        """Non-negative int64 `values` in decimal, zero-padded to at least `pad` digits."""
        width = np.maximum(np.searchsorted(_POWERS_OF_TEN, values, "right") + 1, pad)
        places = int(width.max(initial=pad))
        digits = np.empty((len(values), places), np.uint8)
        for place in range(places - 1, -1, -1):
            quotient = values // 10
            digits[:, place] = values - 10 * quotient
            values = quotient
        digits += ord("0")
        return cls(digits.reshape(-1), np.arange(len(width)) * places + places - width, width)

    def __len__(self) -> int:
        return len(self.width)

    def __getitem__(self, rows) -> "_Spans":
        """The spans of `rows`, over the same buffer."""
        return _Spans(self.buf, self.start[rows], self.width[rows])

    def __add__(self, other: "_Spans") -> "_Spans":
        return _Spans(
            np.concatenate([self.buf, other.buf]),
            np.concatenate([self.start, other.start + len(self.buf)]),
            np.concatenate([self.width, other.width]),
        )

    def decode(self, rows=slice(None)) -> list[str]:
        """The strings of `rows`, all by default."""
        start = self.start[rows]
        low, stop = start.min(initial=len(self.buf)), start + self.width[rows]
        data = self.buf[low:stop.max(initial=0)].tobytes()
        spans = zip((start - low).tolist(), (stop - low).tolist())
        return [data[begin:end].decode("utf-8", "surrogatepass") for begin, end in spans]


#: 10, 100, ..., 10**18: an int64 below ``_POWERS_OF_TEN[k]`` has at most k + 1 digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)

#: The four digits of each year in `DEFAULT_YEAR_RANGE`, back to back.
_YEAR_DIGITS = np.frombuffer(
    "".join(map(str, range(DEFAULT_YEAR_RANGE[0], DEFAULT_YEAR_RANGE[1] + 1))).encode(), np.uint8
)

#: Rows encoded at a time, so that no encoder temporary grows with the table.
_BLOCK_ROWS = 1 << 16


def _blocks(rows: int) -> Iterator[slice]:
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, rows, _BLOCK_ROWS))


def _items(buf: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of `buf` from each offset, as one void item per offset, in place."""
    return np.ndarray((len(buf) - width + 1,), np.dtype((np.void, width)), buf, strides=(1,))


def _put(out: np.ndarray, at: np.ndarray, columns: Sequence[_Spans], ends: bytes = b"") -> None:
    """Write row i of `columns` from ``out[at[i]]`` on.

    A row is its spans in turn, each followed by its byte of `ends`, if
    any. Each column is copied with one gather and one scatter per distinct
    span width, moving each span as one item.
    """
    at = at.copy()
    for k, column in enumerate(columns):
        count = np.bincount(column.width)
        for width in (np.flatnonzero(count[1:]) + 1).tolist():
            rows = slice(None) if count[width] == len(at) else column.width == width
            _items(out, width)[at[rows]] = _items(column.buf, width)[column.start[rows]]
        at += column.width
        if ends:
            out[at] = ends[k]
            at += 1


def _lines(columns: Sequence[_Spans]) -> np.ndarray:
    """The rows of `columns` as CSV lines of UTF-8 bytes: each span, then a comma or a newline.

    A span that is not UTF-8 (a lone surrogate, which `_Spans.of` lets
    through) raises `InputDataError`.
    """
    ends = b"," * (len(columns) - 1) + b"\n"
    width = sum(column.width for column in columns) + len(ends)
    stop = np.cumsum(width)
    out = np.empty(int(stop[-1]) if len(stop) else 0, np.uint8)
    _put(out, stop - width, columns, ends)
    if out.max(initial=0) >= 0x80:
        try:
            str(out.data, "utf-8")
        except UnicodeDecodeError as exc:
            row = np.searchsorted(stop, exc.start, "right")
            text = str(out[stop[row] - width[row]:stop[row] - 1].data, "utf-8", "surrogatepass")
            raise InputDataError(f"{text!r} does not encode as UTF-8") from None
    return out


#: `_MASKS[k]` keeps the first k bytes of a big-endian uint64 word.
_MASKS = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], np.uint64)


def _words(ids: _Spans) -> list[np.ndarray]:
    """Each id's bytes, padded with zeros to whole words, as big-endian uint64 columns."""
    padded = np.concatenate([ids.buf, np.zeros(8, np.uint8)])
    # The eight bytes from each offset, read in place as one word.
    at = np.ndarray((len(ids.buf) + 1,), ">u8", padded, strides=(1,))
    words = []
    for first in range(0, max(int(ids.width.max(initial=0)), 1), 8):
        word = at[np.minimum(ids.start + first, len(ids.buf))].astype(np.uint64)
        if (tail := ids.width - first).min(initial=8) < 8:
            word &= _MASKS[np.clip(tail, 0, 8)]
        words.append(word)
    return words


def _hash(words: list[np.ndarray], width: np.ndarray) -> np.ndarray:
    """One uint64 of an id's words and width; equal ids hash equal."""
    mixed = width.astype(np.uint64)
    for word in words:
        mixed = (mixed ^ word) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
    return mixed


def _starts(ordered: np.ndarray) -> np.ndarray:
    """True where sorted `ordered` holds a value unlike the one before it."""
    new = np.empty(len(ordered), bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return new


def _distinct(key: np.ndarray) -> np.ndarray:
    """The distinct values of `key`, sorted, by one sort (`np.unique` would hash them)."""
    ordered = np.sort(key)
    return ordered[_starts(ordered)]


def _group(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes numbering the distinct values of `key` in sorted order, one row of each, and
    all rows in code order."""
    order = np.argsort(key)
    new = _starts(key[order])
    codes = np.empty(len(key), np.intp)
    codes[order] = np.cumsum(new) - 1
    return codes, order[new], order


def _code(ids: _Spans, *columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code of each id, equal exactly where the ids are equal, one row of each code, and
    all rows in code order.

    Each of `columns`, integers of one value per id, is one more part of
    the id. An id's key is its one word, or the hash of its words, width
    and columns. Each row is checked against a row of its key's code; where
    any differs (a hash collision, or ids such as ``"p"`` and ``"p\\x00"``
    whose padded words agree), the rows of those codes are coded again by
    an exact sort of their words, widths and columns.
    """
    words = _words(ids) + [column.astype(np.uint64) for column in columns]
    codes, rows, order = _group(words[0] if len(words) == 1 else _hash(words, ids.width))
    of_code = rows[codes]
    clash = ids.width != ids.width[of_code]
    for word in words:
        clash |= word != word[of_code]
    if clash.any():
        suspect = np.flatnonzero(np.isin(codes, codes[clash]))
        width = ids.width[suspect].astype(np.uint64)
        exact = np.column_stack([*(word[suspect] for word in words), width])
        _, within = np.unique(exact, axis=0, return_inverse=True)
        codes[suspect] = len(rows) + within.ravel()
        codes, rows, order = _group(codes)
    return codes, rows, order


def _ranked(distinct: list) -> tuple[list[int], np.ndarray]:
    """The order that sorts `distinct`, and the rank in it of each item."""
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    return order, rank


def _sorted_codes(ids: _Spans) -> tuple[list[str], np.ndarray]:
    """The sorted distinct `ids` and the index of each id among them."""
    codes, rows, _ = _code(ids)
    distinct = ids.decode(rows)
    order, rank = _ranked(distinct)
    return [distinct[i] for i in order], rank[codes]


def _first_broken(rules) -> tuple[int, str] | None:
    """The first row that breaks one of `rules`, (mask, message of row) pairs, and its message.

    Where a row breaks several rules, the first rule's message is given.
    """
    if broken := [mask.argmax() for mask, _ in rules if mask.any()]:
        row = min(broken)
        return row, next(message(row) for mask, message in rules if mask[row])
    return None


class Publications:
    """Publication rows as columns, checked against the row rules when built.

    The paper and field ids are spans of UTF-8 bytes, made from lists of
    strings when given those. `year` and `mentions` are int64 arrays, and
    `line` holds each row's 1-based input line, or is None for rows not
    read from a file. The first row with an empty id, a year outside
    `DEFAULT_YEAR_RANGE` or a negative mention count raises
    `InputDataError`, prefixed with ``line N: `` when lines are known.
    Iteration yields the rows as `PublicationRecord`s.
    """

    def __init__(self, paper_id, field_id, year, mentions, line=None):
        self._paper, self._field, self.line = _Spans.of(paper_id), _Spans.of(field_id), line
        year, mentions = _integers(year), _integers(mentions)
        broken = _first_broken((
            (self._paper.width == 0, lambda i: "empty paper_id"),
            (self._field.width == 0, lambda i: "empty field_id"),
            (years_outside(year), lambda i: year_error(year[i])),
            (mentions < 0, lambda i: f"negative mention count {mentions[i]}"),
        ))
        if broken:
            row, message = broken
            raise InputDataError(message if line is None else f"line {line[row]}: {message}")
        if mentions.dtype != np.int64:
            # Only mentioned-or-not is read, so a count past int64 keeps its maximum.
            mentions = np.minimum(mentions, 2**63 - 1).astype(np.int64)
        self.year, self.mentions = year.astype(np.int64, copy=False), mentions

    def __len__(self) -> int:
        return len(self._paper)

    def __iter__(self) -> Iterator[PublicationRecord]:
        # In blocks, so that no column is held whole as Python objects.
        for block in _blocks(len(self)):
            ids = self._paper.decode(block), self._field.decode(block)
            columns = self.year[block].tolist(), self.mentions[block].tolist()
            yield from map(_record, zip(*ids, *columns))

    def _span_columns(self, rows: slice) -> list[_Spans]:
        """The four columns of `rows` as spans, the year and mentions in decimal."""
        year = self.year[rows]
        return [
            self._paper[rows],
            self._field[rows],
            _Spans(_YEAR_DIGITS, 4 * (year - DEFAULT_YEAR_RANGE[0]), np.full(len(year), 4)),
            _Spans.digits(self.mentions[rows]),
        ]


class Membership:
    """Membership rows: paper ids and group ids as spans, and `line` as in `Publications`.

    Rows read from a file must have both ids: the first line with an empty
    one raises `InputDataError`. `build_profiles` checks the membership
    rules. Iteration yields the rows as decoded ``(paper_id, group_id)``
    tuples, a block at a time.
    """

    def __init__(self, paper_id, group_id, line=None):
        self._paper, self._group, self.line = _Spans.of(paper_id), _Spans.of(group_id), line
        if line is None:
            return
        broken = _first_broken((
            (self._paper.width == 0, lambda i: "empty paper_id"),
            (self._group.width == 0, lambda i: "empty group_id"),
        ))
        if broken:
            row, message = broken
            raise InputDataError(f"line {line[row]}: {message}")

    @classmethod
    def of(cls, pairs: "Membership | Sequence[tuple[str, str]]") -> "Membership":
        """The table of (paper_id, group_id) `pairs`, or `pairs` if it is a table."""
        if isinstance(pairs, Membership):
            return pairs
        return cls(*(list(zip(*pairs)) or [(), ()]))

    def __len__(self) -> int:
        return len(self._paper)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        for block in _blocks(len(self)):
            yield from zip(self._paper.decode(block), self._group.decode(block))

    def _span_columns(self, rows: slice) -> list[_Spans]:
        return [self._paper[rows], self._group[rows]]


class CountProfile:
    """An immutable label, sorted strata and their ``(strata, 2)`` counts.

    Row i of the read-only float64 array ``counts`` holds the mentioned and
    not-mentioned papers of ``strata()[i]``. Sorted strata make any output
    derived from a profile deterministic regardless of construction order.
    """

    def __init__(self, label: str, cells: Mapping[StratumKey, CellCounts]):
        if not label:
            raise InputDataError("profile label must be non-empty")
        items = sorted(cells.items())
        self.label, self._keys = label, tuple(key for key, _ in items)
        self.counts = np.array(
            [(c.mentioned, c.not_mentioned) for _, c in items], dtype=np.float64
        ).reshape(-1, 2)
        self.counts.flags.writeable = False

    @staticmethod
    def _of(label: str, keys: tuple, counts: np.ndarray) -> "CountProfile":
        """A profile over sorted `keys` and their `(strata, 2)` float64 `counts`."""
        profile = object.__new__(CountProfile)
        profile.label, profile._keys, profile.counts = label, keys, counts
        counts.flags.writeable = False
        return profile

    def _with(self, keys: tuple, counts: np.ndarray) -> "CountProfile":
        return CountProfile._of(self.label, keys, counts)

    @cached_property
    def _rows(self) -> dict[StratumKey, int]:
        return dict(zip(self._keys, range(len(self._keys))))

    def _take(self, mask: np.ndarray) -> "CountProfile":
        """The strata where the boolean `mask` is true, as a new profile."""
        return self._with(tuple(compress(self._keys, mask.tolist())), self.counts[mask])

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountProfile):
            return NotImplemented
        return (
            (self.label, self._keys) == (other.label, other._keys)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        return f"CountProfile({self.label!r}, {len(self)} strata)"

    def strata(self) -> tuple[StratumKey, ...]:
        return self._keys

    @property
    def total_papers(self) -> float:
        return float(self.counts.sum())


def world_rows(world: CountProfile, group: CountProfile) -> np.ndarray:
    """Row in `world` of each of `group`'s strata; all must be in the world."""
    index = world._rows
    try:
        return np.fromiter(map(index.__getitem__, group.strata()), np.intp, len(group))
    except KeyError:
        raise InputDataError(
            f"group {group.label!r} has strata absent from the world profile: "
            + ", ".join(str(key) for key in group.strata() if key not in index)
        ) from None


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


@dataclass(frozen=True)
class CorrectionResult:
    world: CountProfile
    groups: dict[str, CountProfile]
    notes: tuple[str, ...]


def _integers(values) -> np.ndarray:
    """`values` as an integer array, of Python ints where no one dtype holds them all."""
    array = np.asarray(values)
    return array if array.dtype.kind in "iu" else np.array(values, object)


class Profiles(tuple):
    """`(world, groups)`, with the `papers` and membership `pairs` counted distinct."""

    def __new__(cls, world, groups, papers: int, pairs: int):
        profiles = super().__new__(cls, (world, groups))
        profiles.papers, profiles.pairs = papers, pairs
        return profiles


def build_profiles(
    table: Publications,
    memberships: Membership | Sequence[tuple[str, str]],
) -> Profiles:
    """Aggregate a table of publication rows into world and group count profiles.

    Parameters
    ----------
    table:
        Paper-to-stratum assignments, checked against the row rules when
        the table was built. A paper may appear under several strata
        (multi-field papers) but only once per stratum.
    memberships:
        A `Membership` table, as `parse_membership` returns it, or any
        sequence of (paper_id, group_id) pairs. Every cited paper must
        exist in `table`; a paper contributes to a group in every stratum
        it is assigned to. Duplicate pairs are collapsed with a warning.

    Returns
    -------
    (world, groups):
        The world profile over all rows plus one profile per group
        label, each over the strata where it has papers, as a `Profiles`
        pair. Profiles compare equal across permutations of the inputs.

    Raises
    ------
    InputDataError
        On duplicate (paper, stratum) assignments, empty group labels,
        unknown paper ids in `memberships`, or a group labelled with the
        reserved world label.
    """
    start = time.perf_counter()
    members = Membership.of(memberships)
    # Strata coded from the field bytes and the year, numbered in key order.
    stratum_codes, first_rows, _ = _code(table._field, table.year)
    distinct = list(zip(table._field.decode(first_rows), table.year[first_rows].tolist()))
    order, rank = _ranked(distinct)
    stratum_codes, first_rows = rank[stratum_codes], first_rows[order]
    # Keys are made in key order, with one string per field, so that they
    # lie in memory in the order that the filters and indicators read them;
    # made in code order, they slowed a 10k-strata filter session by a fifth.
    shared: dict[str, str] = {}
    fields = [shared.setdefault(field, field) for field in table._field.decode(first_rows)]
    keys = tuple(map(StratumKey, fields, table.year[first_rows].tolist()))
    unmentioned = table.mentions == 0

    # The table's and the memberships' paper ids, coded together; the
    # table's rows in code order hold each paper's rows as one run.
    paper_ids = table._paper + members._paper
    paper_codes, of_paper, by_paper = _code(paper_ids)
    by_paper = by_paper[by_paper < len(table)]
    paper_codes, member_papers = paper_codes[: len(table)], paper_codes[len(table):]
    per_paper = np.bincount(paper_codes, minlength=len(of_paper))

    # Sorted, a repeated (paper, stratum) row is next to its first one.
    assignments = paper_codes * len(keys) + stratum_codes
    if not _starts(np.sort(assignments)).all():
        repeated = np.ones(len(table), bool)
        repeated[np.unique(assignments, return_index=True)[1]] = False
        row = repeated.argmax()
        raise InputDataError(
            f"paper {paper_ids.decode([row])[0]!r} assigned to stratum "
            f"{keys[stratum_codes[row]]} more than once"
        )
    cells = np.bincount(stratum_codes * 2 + unmentioned, minlength=2 * len(keys))
    world = CountProfile._of(WORLD_LABEL, keys, cells.reshape(-1, 2).astype(float))

    labels, member_groups = _sorted_codes(members._group)
    reserved = np.array([label == WORLD_LABEL for label in labels], bool)
    broken = _first_broken((
        (members._group.width == 0, lambda i: "membership row has empty group_id"),
        (
            reserved[member_groups],
            lambda i: f"group label {WORLD_LABEL!r} is reserved for the world profile",
        ),
        (
            per_paper[member_papers] == 0,
            lambda i: f"membership references unknown paper {members._paper.decode([i])[0]!r}",
        ),
    ))
    if broken:
        raise InputDataError(broken[1])
    pairs = _distinct(member_papers * len(labels) + member_groups)
    if duplicates := len(members) - len(pairs):
        logger.warning("collapsed %d duplicate membership pair(s)", duplicates)

    # Pair each membership with every row of its paper, reading the
    # paper's run of rows from the rows in paper order.
    member_papers, member_groups = np.divmod(pairs, len(labels))
    reps = per_paper[member_papers]
    shift = np.cumsum(per_paper)[member_papers] - np.cumsum(reps)
    rows = by_paper[np.arange(reps.sum()) + np.repeat(shift, reps)]

    # Codes of the (group, stratum) cells that hold papers, sorted by group
    # and then by stratum, so each group's strata are one sorted run.
    held, cell_of_row = np.unique(
        np.repeat(member_groups, reps) * len(keys) + stratum_codes[rows],
        return_inverse=True,
    )
    counts = np.bincount(cell_of_row * 2 + unmentioned[rows], minlength=2 * len(held))
    counts = counts.reshape(-1, 2).astype(float)
    group_of, stratum_of = np.divmod(held, len(keys))
    bounds = np.searchsorted(group_of, np.arange(len(labels) + 1))
    groups = {}
    for label, lo, hi in zip(labels, bounds, bounds[1:]):
        strata_of = tuple(map(keys.__getitem__, stratum_of[lo:hi].tolist()))
        groups[label] = CountProfile._of(label, strata_of, counts[lo:hi])
    logger.info(
        "profiles.build_profiles %.3f s, %d rows in, %d strata out",
        time.perf_counter() - start, len(table), len(keys),
    )
    return Profiles(world, groups, int(np.count_nonzero(per_paper)), len(pairs))


def apply_filters(
    world: CountProfile,
    groups: Mapping[str, CountProfile],
    config: FilterConfig,
) -> FilterResult:
    """Drop strata per `config`, returning filtered profiles plus an audit trail.

    Filters run in a fixed order: restriction to a reference group's strata,
    then the minimum world stratum size, then (only under the ``drop`` policy)
    removal of strata whose world row has an empty mentioned or not-mentioned
    cell. Each removal is recorded as (stratum, reason), by filter and then
    in stratum order.

    Raises
    ------
    InputDataError
        If a group has strata absent from the world, or
        `config.restrict_to_group_strata` names an unknown group.
    DegenerateComputationError
        If no strata remain after filtering.
    """
    rows = {label: world_rows(world, profile) for label, profile in groups.items()}
    keys = world.strata()
    mentioned, not_mentioned = world.counts.T
    keep = np.ones(len(world), dtype=bool)
    removed: list[tuple[StratumKey, str]] = []

    def drop(mask: np.ndarray, reason) -> None:
        removed.extend((keys[i], reason(i)) for i in np.flatnonzero(mask).tolist())
        keep[mask] = False

    if config.restrict_to_group_strata is not None:
        ref = groups.get(config.restrict_to_group_strata)
        if ref is None:
            raise InputDataError(
                f"unknown reference group {config.restrict_to_group_strata!r}"
            )
        outside = np.ones(len(world), dtype=bool)
        outside[rows[config.restrict_to_group_strata]] = False
        drop(outside, lambda i: f"outside the strata of group {ref.label!r}")

    total = mentioned + not_mentioned
    drop(
        keep & (total < config.min_stratum_papers),
        lambda i: f"world stratum has {total[i]:g} papers, fewer than "
        f"{config.min_stratum_papers}",
    )

    if config.zero_handling == "drop":
        drop(
            keep & ((mentioned == 0) | (not_mentioned == 0)),
            lambda i: "world stratum has no mentioned papers"
            if mentioned[i] == 0
            else "world stratum has no unmentioned papers",
        )

    if not keep.any():
        raise DegenerateComputationError("no strata remain after filtering")

    filtered_groups = {
        label: profile._take(keep[rows[label]]) for label, profile in groups.items()
    }
    return FilterResult(world._take(keep), filtered_groups, tuple(removed))


def corrected_cells(a, b, c, d, present, out=None):
    """README "Zero handling"'s continuity correction, on ``(..., strata)`` cells.

    Takes a group's mentioned and not-mentioned cells `a` and `b`, the
    world's `c` and `d` in the same strata, and `present`, the number of
    groups with papers in each stratum, which moves only the world cells.
    Returns the corrected ``(a, b, c, d)`` and the mask of corrected group
    strata. `out`, if given, holds six float64 arrays shaped like the cells
    (the four results, then two for intermediates) and three bool ones (the
    mask, then two); otherwise they are allocated.
    """
    a_c, b_c, c_c, d_c, half, added, fixed, empty, flag = out or (None,) * 9
    # A group with no papers in a stratum is not present there: no correction.
    fixed = np.greater(np.add(a, b, out=half), 0, out=fixed)
    empty = np.equal(c, 0, out=empty)
    flag = np.equal(a, 0, out=flag)
    flag |= empty
    fixed &= flag
    half = np.multiply(fixed, 0.5, out=half)
    # 0.5 per present group (at least 0.5) where c == 0, else 0.0.
    added = np.multiply(empty, 0.5 * np.maximum(present, 1), out=added)
    return (
        np.add(a, half, out=a_c),
        np.add(b, half, out=b_c),
        np.add(c, added, out=c_c),
        np.add(d, added, out=d_c),
        fixed,
    )


def continuity_correct(
    world: CountProfile,
    groups: Mapping[str, CountProfile],
) -> CorrectionResult:
    """Apply 0.5 continuity corrections wherever a mentioned cell is empty.

    Two situations trigger a correction in a stratum (`corrected_cells`):

    * The world has no mentioned papers there. Every group present in the
      stratum gains 0.5 mentioned and 0.5 not-mentioned papers, and the
      world cell gains 0.5 of each per corrected group (at least one), so
      the corrected world still dominates the sum of its corrected groups.
    * The world has mentioned papers but some group present there does
      not. Only that group's cell is corrected, and the world's is not, so
      dominance holds only in the first case: a group that also holds all
      of the stratum's unmentioned papers ends up with more of them than
      the world, and `mnpc` refuses the corrected profiles.

    Already-positive cells are never touched, so applying the correction
    twice changes nothing. Each adjusted cell is reported in `notes`, in
    stratum order; within a stratum the world comes first, then the groups
    by label.

    Raises
    ------
    InputDataError
        If a group has strata absent from the world.
    """
    keys = world.strata()
    c, d = world.counts.T
    present = np.zeros(len(world), dtype=np.int64)
    notes: list[tuple[int, str, str]] = []
    corrected_groups = {}
    for label, profile in groups.items():
        rows = world_rows(world, profile)
        a, b = profile.counts.T
        present[rows] += a + b > 0
        a, b, _, _, fixed = corrected_cells(a, b, c[rows], d[rows], present[rows])
        note = f"group {label!r} mentioned cell corrected by 0.5"
        notes.extend((row, label, note) for row in rows[fixed].tolist())
        corrected_groups[label] = profile._with(profile.strata(), np.stack((a, b), -1))

    _, _, c_c, d_c, _ = corrected_cells(c, d, c, d, present)
    # A world cell changes only where it was empty, so c_c is what it gained.
    notes.extend(
        (row, "", f"world mentioned cell corrected by {c_c[row]:g}")
        for row in np.flatnonzero(c_c != c).tolist()
    )
    return CorrectionResult(
        world._with(keys, np.stack((c_c, d_c), -1)),
        corrected_groups,
        tuple(f"stratum {keys[row]}: {note}" for row, _, note in sorted(notes)),
    )
