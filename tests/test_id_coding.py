"""Paper, field and group ids are coded by their bytes, exactly as by string equality.

Each test builds a publications CSV with `csv.writer`, so ids holding a
comma, a quote or a newline are quoted and take the csv reader, and the
others take the plain reader. The profiles that `build_profiles` makes
from it are compared with a reference that aggregates the same rows in
dicts of strings. Ids mix ASCII, multi-byte characters and NUL, run from
1 to 40 bytes across the 8-byte word boundaries, and come in pairs where
one is a prefix of the other.
"""

import csv
import io
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinorm import InputDataError, StratumKey, build_profiles, parse_membership, parse_publications
from zinorm import profiles
from zinorm.report import PUBLICATION_HEADER

from conftest import columns

PLAIN = ["a", "b", "z", "0", "é", "€", "𝄞", "\x00"]
QUOTED = PLAIN + [",", '"', "\n"]


def _fits(text: str) -> bool:
    return 1 <= len(text.encode("utf-8")) <= 40


@st.composite
def id_pool(draw, characters, max_size):
    """Distinct ids, some of them prefixes or NUL-padded extensions of others."""
    ids = st.text(st.sampled_from(characters), min_size=1, max_size=40).filter(_fits)
    pool = draw(st.lists(ids, min_size=1, max_size=max_size, unique=True))
    for base in list(pool):
        kind = draw(st.sampled_from(["none", "nul", "extend", "prefix"]))
        if kind == "nul":
            pool.append(base + "\x00")
        elif kind == "extend":
            pool.append(base + draw(ids))
        elif kind == "prefix" and len(base) > 1:
            pool.append(base[: draw(st.integers(1, len(base) - 1))])
    return [text for text in dict.fromkeys(pool) if _fits(text)]


@st.composite
def worlds(draw):
    """Publication rows with one row per (paper, field, year), and membership pairs.

    Half the worlds use no character that the CSV file must quote, so that
    they take the plain reader.
    """
    characters = draw(st.sampled_from([PLAIN, QUOTED]))
    papers = draw(id_pool(characters, max_size=10))
    fields = draw(id_pool(characters, max_size=4))
    rows = {}
    for _ in range(draw(st.integers(1, 30))):
        paper = draw(st.sampled_from(papers))
        field = draw(st.sampled_from(fields))
        year = draw(st.sampled_from([2000, 2001]))
        rows[paper, field, year] = draw(st.integers(0, 3))
    rows = [(*key, mentions) for key, mentions in rows.items()]
    labels = draw(id_pool(QUOTED, max_size=3))
    known = [row[0] for row in rows]
    pairs = draw(st.lists(st.tuples(st.sampled_from(known), st.sampled_from(labels)), max_size=20))
    return rows, pairs


def csv_text(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PUBLICATION_HEADER)
    writer.writerows(rows)
    return out.getvalue()


def parsed(rows):
    return parse_publications(io.StringIO(csv_text(rows), newline=""))


def reference(rows, pairs):
    """World and group cells, distinct papers and distinct pairs, aggregated by string keys."""
    world = defaultdict(lambda: [0, 0])
    by_paper = defaultdict(list)
    for paper, field, year, mentions in rows:
        key = StratumKey(field, year)
        world[key][mentions == 0] += 1
        by_paper[paper].append((key, mentions == 0))
    groups = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for paper, label in set(pairs):
        for key, unmentioned in by_paper[paper]:
            groups[label][key][unmentioned] += 1
    return dict(world), {label: dict(cells) for label, cells in groups.items()}, len(by_paper), len(set(pairs))


def as_cells(profile):
    return {key: list(row) for key, row in zip(profile.strata(), profile.counts.astype(int).tolist())}


def assert_matches_reference(rows, pairs):
    table = parsed(rows)
    assert columns(table) == [list(column) for column in zip(*rows)]
    profiles_ = build_profiles(table, pairs)
    world, groups = profiles_
    ref_world, ref_groups, papers, distinct_pairs = reference(rows, pairs)
    assert as_cells(world) == ref_world
    assert {label: as_cells(profile) for label, profile in groups.items()} == ref_groups
    assert list(groups) == sorted(ref_groups)
    assert (profiles_.papers, profiles_.pairs) == (papers, distinct_pairs)


class TestCodingByBytes:
    @given(worlds())
    @settings(max_examples=150)
    def test_profiles_match_string_keyed_reference(self, world):
        assert_matches_reference(*world)

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_first_repeated_row_is_reported(self, world, rnd):
        rows, _ = world
        rows = rows + [rnd.choice(rows)[:3] + (rnd.randrange(3),) for _ in range(rnd.randrange(1, 4))]
        rnd.shuffle(rows)
        seen = set()
        for paper, field, year, _ in rows:
            if (paper, field, year) in seen:
                break
            seen.add((paper, field, year))
        message = f"paper {paper!r} assigned to stratum {field}/{year} more than once"
        with pytest.raises(InputDataError) as caught:
            build_profiles(parsed(rows), [])
        assert str(caught.value) == message

    @given(worlds(), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_first_membership_error_in_pair_order(self, world, rnd):
        rows, pairs = world
        known = {row[0] for row in rows}
        unknown = next(paper + "\x00" for paper in sorted(known) if paper + "\x00" not in known)
        broken = [(rows[0][0], ""), (rows[0][0], "world"), (unknown, "g"), (unknown, "")]
        pairs = pairs + rnd.sample(broken, rnd.randrange(1, len(broken) + 1))
        rnd.shuffle(pairs)
        for paper, label in pairs:
            if not label:
                message = "membership row has empty group_id"
            elif label == "world":
                message = "group label 'world' is reserved for the world profile"
            elif paper not in known:
                message = f"membership references unknown paper {paper!r}"
            else:
                continue
            break
        with pytest.raises(InputDataError) as caught:
            build_profiles(parsed(rows), pairs)
        assert str(caught.value) == message

    @given(worlds())
    @settings(max_examples=60)
    def test_colliding_hashes_take_the_exact_path(self, world):
        with mock.patch.object(profiles, "_hash", constant_hash):
            assert_matches_reference(*world)

    def test_membership_file_ids_meet_the_table_ids(self):
        rows = [("p", "f", 2000, 1), ("p\x00", "f", 2000, 0), ("pé", "f", 2000, 0)]
        pairs = parse_membership(io.StringIO("paper_id,group_id\np\x00,g\npé,g\n", newline=""))
        world, groups = build_profiles(parsed(rows), pairs)
        assert as_cells(groups["g"]) == {StratumKey("f", 2000): [0, 2]}


def constant_hash(words, width):
    """Every id of more than one word hashes alike, so all of them collide."""
    return np.zeros(len(width), np.uint64)


def dict_codes(ids):
    index = {}
    return [index.setdefault(text, len(index)) for text in ids]


@st.composite
def id_lists(draw):
    pool = draw(id_pool(QUOTED, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))


class TestCoder:
    @given(id_lists(), st.booleans())
    @settings(max_examples=200)
    def test_codes_partition_rows_as_dict_coding(self, ids, collide):
        with mock.patch.object(profiles, "_hash", constant_hash if collide else profiles._hash):
            codes, rows, _ = profiles._code(profiles._Spans.of(ids))
        assert sorted(set(codes.tolist())) == list(range(len(rows)))
        assert [ids[row] for row in rows[codes].tolist()] == ids
        # Equal codes exactly where the ids are equal: the same partition.
        renumbered = dict_codes(codes.tolist())
        assert renumbered == dict_codes(ids)

    @given(id_lists(), st.data(), st.booleans())
    @settings(max_examples=200)
    def test_columns_are_part_of_the_id(self, ids, data, collide):
        size = len(ids)
        years = data.draw(st.lists(st.sampled_from([1900, 2000, 2100]), min_size=size, max_size=size))
        with mock.patch.object(profiles, "_hash", constant_hash if collide else profiles._hash):
            codes, rows, order = profiles._code(profiles._Spans.of(ids), np.array(years))
        assert dict_codes(codes.tolist()) == dict_codes(list(zip(ids, years)))
        assert sorted(set(codes.tolist())) == list(range(len(rows)))
        # The rows in code order: each code's rows are one run.
        assert codes[order].tolist() == sorted(codes.tolist())

    @given(id_lists())
    def test_sorted_codes_sort_as_python_strings(self, ids):
        distinct, codes = profiles._sorted_codes(profiles._Spans.of(ids))
        assert distinct == sorted(set(ids))
        assert [distinct[code] for code in codes.tolist()] == ids

    @pytest.mark.parametrize(
        "ids",
        [
            ["p", "p\x00", "p", "p\x00\x00", ""],
            ["abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgh"],
            ["a" * 9, "b" * 9, "a" * 9, "a" * 17, "a" * 16 + "\x00"],
            ["abcdefgh1", "abcdefgi1", "abcdefgh1", "bbcdefgh1"],
        ],
        ids=["one-word-nul", "word-boundary", "multi-word", "last-byte-of-word"],
    )
    def test_clashing_keys_are_split_exactly(self, ids):
        with mock.patch.object(profiles, "_hash", constant_hash):
            codes, _, _ = profiles._code(profiles._Spans.of(ids))
        assert dict_codes(codes.tolist()) == dict_codes(ids)

    def test_spans_decode_what_they_encode(self):
        ids = ["é", "\x00", "a,b", "𝄞\n", "\udce9"]
        assert profiles._Spans.of(ids).decode() == ids
