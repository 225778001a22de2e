"""Invariant checks that hold for whole families of inputs."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zinorm import (
    CellCounts,
    CountProfile,
    DegenerateComputationError,
    FilterConfig,
    IndicatorKind,
    InputDataError,
    StratumKey,
    apply_filters,
    build_profiles,
    classify_overlap,
    emnpc,
    mhq,
    mnpc,
    parse_membership,
    parse_publications,
)
from zinorm.indicators import IndicatorResult
from zinorm.profiles import PublicationRecord, _Spans
from zinorm.report import (
    _csv_membership,
    _csv_publications,
    _digits,
    _plain_membership,
    _plain_publications,
)

from conftest import cells, table

settings.register_profile(
    "zinorm",
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
settings.load_profile("zinorm")


def key_for(i, year=2000):
    return StratumKey(f"f{i:02d}", year)


@st.composite
def paired_profiles(draw, min_strata=1, max_strata=5, min_mentioned=0):
    """A (group, world) pair where the world dominates cell by cell."""
    n_strata = draw(st.integers(min_strata, max_strata))
    group_cells = {}
    world_cells = {}
    for i in range(n_strata):
        a = draw(st.integers(min_mentioned, 15))
        b = draw(st.integers(0, 15))
        c = a + draw(st.integers(0, 15))
        d = b + draw(st.integers(0, 15))
        assume(a + b > 0 and c + d > 0)
        group_cells[key_for(i)] = CellCounts(a, b)
        world_cells[key_for(i)] = CellCounts(c, d)
    return (
        CountProfile("g", group_cells),
        CountProfile("world", world_cells),
    )


def try_indicator(func, group, world):
    try:
        return func(group, world)
    except DegenerateComputationError:
        assume(False)


class TestWorldIdentity:
    @given(paired_profiles(min_mentioned=1))
    def test_world_scores_unity(self, pair):
        _, world = pair
        assume((world.counts[:, 1] > 0).all())
        assert mhq(world, world).value == pytest.approx(1.0, abs=1e-12)
        assert emnpc(world, world).value == pytest.approx(1.0, abs=1e-12)
        assert mnpc(world, world).value == pytest.approx(1.0, abs=1e-12)

    @given(paired_profiles(min_mentioned=1))
    def test_world_identity_interval_contains_one(self, pair):
        _, world = pair
        assume((world.counts[:, 1] > 0).all())
        for func in (mhq, emnpc, mnpc):
            result = func(world, world)
            assert result.ci_lower <= 1.0 <= result.ci_upper


class TestSingleStratum:
    @given(
        st.integers(1, 30), st.integers(1, 30),
        st.integers(0, 30), st.integers(0, 30),
    )
    def test_mhq_reduces_to_odds_ratio(self, a, b, extra_c, extra_d):
        c, d = a + extra_c, b + extra_d
        group = CountProfile("g", {key_for(0): CellCounts(a, b)})
        world = CountProfile("world", {key_for(0): CellCounts(c, d)})
        result = mhq(group, world)
        assert result.value == pytest.approx((a * d) / (b * c), rel=1e-12)


class TestReplicationInvariance:
    @staticmethod
    def replicate(pair, copies):
        group, world = pair
        group_cells = {}
        world_cells = {}
        world_by_key = cells(world)
        for copy in range(copies):
            for key, cell in cells(group).items():
                new_key = StratumKey(key.field_id, key.year + copy)
                group_cells[new_key] = cell
                world_cells[new_key] = world_by_key[key]
        return (
            CountProfile("g", group_cells),
            CountProfile("world", world_cells),
        )

    @given(paired_profiles(min_mentioned=1), st.integers(2, 4))
    def test_value_unchanged_and_mh_interval_tightens(self, pair, copies):
        base = try_indicator(mhq, *pair)
        big = mhq(*self.replicate(pair, copies))
        assert big.value == pytest.approx(base.value, rel=1e-12)
        base_width = base.ci_upper - base.ci_lower
        big_width = big.ci_upper - big.ci_lower
        assert big_width < base_width

    @given(paired_profiles(min_mentioned=1), st.integers(2, 4))
    def test_emnpc_and_mnpc_values_unchanged(self, pair, copies):
        group, world = pair
        assume((world.counts[:, 0] > 0).all())
        rep = self.replicate(pair, copies)
        for func in (emnpc, mnpc):
            base = try_indicator(func, group, world)
            big = func(*rep)
            assert big.value == pytest.approx(base.value, rel=1e-12)
        base_e = emnpc(group, world)
        big_e = emnpc(*rep)
        assume(base_e.ci_upper > base_e.ci_lower)
        assert (big_e.ci_upper - big_e.ci_lower) < (
            base_e.ci_upper - base_e.ci_lower
        )


class TestScaleInvariance:
    @given(
        paired_profiles(min_mentioned=1),
        st.sampled_from([2.0, 3.0, 0.5, 10.0]),
    )
    def test_uniform_cell_scaling_leaves_values_alone(self, pair, factor):
        group, world = pair
        assume((world.counts[:, 0] > 0).all())
        scaled_group = CountProfile(
            "g",
            {
                k: CellCounts(c.mentioned * factor, c.not_mentioned * factor)
                for k, c in cells(group).items()
            },
        )
        scaled_world = CountProfile(
            "world",
            {
                k: CellCounts(c.mentioned * factor, c.not_mentioned * factor)
                for k, c in cells(world).items()
            },
        )
        for func in (mhq, emnpc, mnpc):
            base = try_indicator(func, group, world)
            scaled = func(scaled_group, scaled_world)
            assert scaled.value == pytest.approx(base.value, rel=1e-9)


class TestIntervalShape:
    @given(paired_profiles(min_mentioned=1))
    def test_bounds_bracket_value(self, pair):
        for func in (mhq, emnpc, mnpc):
            result = try_indicator(func, *pair)
            assert 0 < result.ci_lower <= result.value <= result.ci_upper

    @given(paired_profiles(min_mentioned=1))
    def test_log_symmetry_for_mh_and_emnpc(self, pair):
        for func in (mhq, emnpc):
            result = try_indicator(func, *pair)
            assume(result.ci_lower < result.value)
            assert result.ci_upper / result.value == pytest.approx(
                result.value / result.ci_lower, rel=1e-9
            )


class TestMnpcDualFormulation:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_profile_formula_matches_per_paper_average(self, seed):
        rng = np.random.default_rng(seed)
        n_strata = int(rng.integers(1, 5))
        records = []
        pairs = []
        for i in range(n_strata):
            n = int(rng.integers(2, 25))
            n_group = int(rng.integers(1, n + 1))
            mentions = rng.binomial(1, 0.5, size=n)
            for j in range(n):
                paper_id = f"s{i}p{j}"
                records.append(
                    PublicationRecord(
                        paper_id, f"f{i:02d}", 2000, int(mentions[j])
                    )
                )
                if j < n_group:
                    pairs.append((paper_id, "g"))
        world, groups = build_profiles(table(records), pairs)
        assume("g" in groups)
        members = {paper_id for paper_id, _ in pairs}
        world_cells = cells(world)
        credits = []
        for record in records:
            if record.paper_id not in members:
                continue
            key = StratumKey(record.field_id, record.year)
            cell = world_cells[key]
            world_rate = cell.mentioned / (cell.mentioned + cell.not_mentioned)
            assume(world_rate > 0)
            credits.append((1.0 / world_rate) if record.mentions else 0.0)
        result = try_indicator(mnpc, groups["g"], world)
        assert result.value == pytest.approx(
            sum(credits) / len(credits), rel=1e-12
        )


class TestDichotomization:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 9)),
            min_size=1,
            max_size=40,
        )
    )
    def test_mention_magnitude_is_irrelevant(self, rows):
        records = [
            PublicationRecord(f"p{i}", f"f{stratum}", 2000, mentions)
            for i, (stratum, mentions) in enumerate(rows)
        ]
        clipped = [
            PublicationRecord(r.paper_id, r.field_id, r.year, min(r.mentions, 1))
            for r in records
        ]
        pairs = [(r.paper_id, "g") for r in records[::2]]
        assert build_profiles(table(records), pairs) == build_profiles(table(clipped), pairs)


def reference_profiles(records, memberships):
    """Per-row dict aggregation: the way `build_profiles` once counted cells."""
    world_cells = {}
    paper_strata = {}
    for rec in records:
        key = StratumKey(rec.field_id, rec.year)
        mentioned = rec.mentions > 0
        cell = world_cells.get(key, CellCounts(0, 0))
        world_cells[key] = CellCounts(
            cell.mentioned + mentioned, cell.not_mentioned + (not mentioned)
        )
        paper_strata.setdefault(rec.paper_id, []).append((key, mentioned))
    group_cells = {}
    for paper_id, group_id in set(memberships):
        by_key = group_cells.setdefault(group_id, {})
        for key, mentioned in paper_strata[paper_id]:
            cell = by_key.get(key, CellCounts(0, 0))
            by_key[key] = CellCounts(
                cell.mentioned + mentioned, cell.not_mentioned + (not mentioned)
            )
    groups = {
        label: CountProfile(label, by_key) for label, by_key in sorted(group_cells.items())
    }
    return CountProfile("world", world_cells), groups


@st.composite
def ingest_inputs(draw):
    """Shuffled records of multi-field papers and memberships with repeats."""
    fields = st.sampled_from(["f0", "f1", "f2", "f3"])
    stratum = st.tuples(fields, st.integers(2000, 2002))
    strata_sets = st.sets(stratum, min_size=1, max_size=3)
    papers = draw(st.lists(strata_sets, min_size=1, max_size=25))
    records = [
        PublicationRecord(f"p{i}", field_id, year, draw(st.integers(0, 3)))
        for i, strata in enumerate(papers)
        for field_id, year in sorted(strata)
    ]
    paper_ids = st.integers(0, len(papers) - 1).map("p{}".format)
    memberships = draw(
        st.lists(st.tuples(paper_ids, st.sampled_from(["g0", "g1", "g2"])), max_size=40)
    )
    return draw(st.permutations(records)), memberships


class TestAggregationReference:
    @given(ingest_inputs())
    def test_build_profiles_matches_per_row_reference(self, inputs):
        records, memberships = inputs
        world, groups = build_profiles(table(records), memberships)
        ref_world, ref_groups = reference_profiles(*inputs)
        assert list(groups) == list(ref_groups)
        profiles = [world, *groups.values()]
        for profile, ref in zip(profiles, [ref_world, *ref_groups.values()]):
            assert profile.label == ref.label
            assert profile.strata() == ref.strata()
            assert profile.counts.tolist() == ref.counts.tolist()


class TestFilterMonotonicity:
    @given(paired_profiles(max_strata=6), st.integers(0, 20), st.integers(0, 20))
    def test_raising_min_papers_never_keeps_more(self, pair, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        group, world = pair
        kept = {}
        for minimum in (lo, hi):
            config = FilterConfig(
                min_stratum_papers=minimum, zero_handling="drop"
            )
            try:
                result = apply_filters(world, {"g": group}, config)
                kept[minimum] = len(result.world)
            except DegenerateComputationError:
                kept[minimum] = 0
        assert kept[hi] <= kept[lo]


class TestOverlapSymmetry:
    @given(
        st.floats(0.1, 10.0),
        st.floats(1.01, 3.0),
        st.floats(1.01, 3.0),
        st.floats(0.1, 10.0),
        st.floats(1.01, 3.0),
        st.floats(1.01, 3.0),
    )
    def test_order_of_arguments_is_immaterial(self, v1, l1, u1, v2, l2, u2):
        first = IndicatorResult(
            IndicatorKind.MHQ, v1, v1 / l1, v1 * u1, 1
        )
        second = IndicatorResult(
            IndicatorKind.MHQ, v2, v2 / l2, v2 * u2, 1
        )
        forward = classify_overlap(first, second)
        backward = classify_overlap(second, first)
        assert forward.category is backward.category
        assert forward.overlap_proportion == pytest.approx(
            backward.overlap_proportion, rel=1e-12
        )
        assert forward.caveat == backward.caveat


#: Field values that the csv module and a plain split may read differently,
#: or that break a row rule.
ODD_FIELDS = [
    "", " 7", "+7", "7_0", "-1", "٣", '"7"', '"p,1"', "1850", "2101",
    "9999999999999999999", "99999999999999999999", "20x0", "007", "é", "p\x00", "p\u2028",
]


def odd_text(draw, header: str, rows: list[list[str]], odd: list[str]) -> str:
    """`header` and `rows` as a file's text, with a few `odd` fields and odd lines.

    A row may have a field too many or too few, a blank line may be
    inserted, lines may end in CRLF, the last newline may be missing and a
    byte order mark may lead.
    """
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(odd))
    if rows and draw(st.integers(0, 5)) == 0:
        row = draw(st.sampled_from(rows))
        row.append("x") if draw(st.booleans()) else row.pop()
    lines = [header, *map(",".join, rows)]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = "\r\n" if draw(st.integers(0, 5)) == 0 else "\n"
    text = newline.join(lines) + ("" if draw(st.integers(0, 3)) == 0 else newline)
    return ("\ufeff" if draw(st.integers(0, 7)) == 0 else "") + text


@st.composite
def publication_texts(draw):
    """Mostly well-formed publications files, with a few odd fields and lines."""
    rows = [
        [
            draw(st.sampled_from(["p1", "p2", "p3", "ü4"])),
            draw(st.sampled_from(["bio", "chem"])),
            str(draw(st.integers(1899, 2101))),
            str(draw(st.integers(0, 12))),
        ]
        for _ in range(draw(st.integers(0, 6)))
    ]
    return odd_text(draw, "paper_id,field_id,year,mentions", rows, ODD_FIELDS)


#: Membership ids: empty, non-ASCII and NUL ones, and ones that the csv
#: module and a plain split read differently.
ODD_IDS = ["", "é", "𝄞", "p\x00", "\x00", " g", '"g"', '"p,1"', 'p"', "p\u2028"]


@st.composite
def membership_texts(draw):
    """Membership files, header only or with rows, with a few odd ids and lines."""
    rows = [
        [
            draw(st.sampled_from(["p1", "p2", "ü4", "p\x00", "p1", "p2", ""])),
            draw(st.sampled_from(["g", "h", "é", "g\x00", "g", "h", ""])),
        ]
        for _ in range(draw(st.integers(0, 6)))
    ]
    return odd_text(draw, "paper_id,group_id", rows, ODD_IDS)


def parse_outcome(read, source):
    """The table `read` gives as records and lines, or its error text."""
    try:
        table = read(source)
    except InputDataError as exc:
        return str(exc)
    if isinstance(table, str):
        return ("declined", table)
    return list(table), list(table.line)


class TestParsePaths:
    @given(publication_texts())
    @settings(max_examples=400)
    def test_fast_and_csv_paths_agree(self, text):
        csv_outcome = parse_outcome(_csv_publications, io.StringIO(text, newline=""))
        fast_outcome = parse_outcome(_plain_publications, text)
        if fast_outcome[0] == "declined":
            # A declined text goes to the csv path whole.
            fast_outcome = parse_outcome(parse_publications, io.StringIO(text, newline=""))
        assert fast_outcome == csv_outcome

    @given(membership_texts())
    @settings(max_examples=400)
    def test_membership_fast_and_csv_paths_agree(self, text):
        csv_outcome = parse_outcome(_csv_membership, io.StringIO(text, newline=""))
        fast_outcome = parse_outcome(_plain_membership, text)
        if fast_outcome[0] == "declined":
            # A declined text goes to the csv path whole.
            fast_outcome = parse_outcome(parse_membership, io.StringIO(text, newline=""))
        assert fast_outcome == csv_outcome


#: Bytes next to the digits in ASCII, and bytes that are not ASCII.
NOT_DIGITS = [b"/", b":", b"\x80", b"\xff", b" ", b"+", b"-", b"_", b",", b"\x00", b"a"]


@st.composite
def digit_columns(draw):
    """Numbers of 1 to 18 digits with leading zeros, as spans of one buffer, a comma after each.

    Half the columns have one byte in one span replaced by a byte that is
    not a digit.
    """
    texts = draw(st.lists(st.text("0123456789", min_size=1, max_size=18), min_size=1, max_size=30))
    spans = [text.encode() for text in texts]
    bad = None
    if draw(st.booleans()):
        row = draw(st.integers(0, len(spans) - 1))
        at = draw(st.integers(0, len(spans[row]) - 1))
        byte = draw(st.sampled_from(NOT_DIGITS) | st.binary(min_size=1, max_size=1))
        assume(not byte.isdigit())
        spans[row] = spans[row][:at] + byte + spans[row][at + 1:]
        bad = byte
    width = np.array([len(span) for span in spans], np.int64)
    buf = np.frombuffer(b"".join(span + b"," for span in spans), np.uint8)
    return _Spans(buf, np.cumsum(width + 1) - width - 1, width), texts, bad


class TestDigits:
    @given(digit_columns())
    @settings(max_examples=400)
    def test_digits_read_as_int_or_refuse_a_non_digit(self, column):
        spans, texts, bad = column
        value = _digits(spans)
        if bad is None:
            assert value.tolist() == [int(text) for text in texts]
        else:
            assert value is None
