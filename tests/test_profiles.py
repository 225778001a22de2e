import logging
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zinorm import (
    CellCounts,
    CountProfile,
    DegenerateComputationError,
    FilterConfig,
    InputDataError,
    StratumKey,
    apply_filters,
    build_profiles,
    continuity_correct,
    mnpc,
)

from conftest import cells, table


def k(field, year=2010):
    return StratumKey(field, year)


def rec(paper, field, year=2010, mentions=1):
    return (paper, field, year, mentions)


class TestStratumKey:
    def test_sorts_by_field_then_year(self):
        keys = [k("b", 2001), k("a", 2002), k("a", 2001)]
        assert sorted(keys) == [k("a", 2001), k("a", 2002), k("b", 2001)]

    def test_str(self):
        assert str(k("bio", 1999)) == "bio/1999"

    def test_empty_field_rejected(self):
        with pytest.raises(InputDataError):
            StratumKey("", 2010)

    def test_replace_keeps_empty_field_check(self):
        with pytest.raises(InputDataError, match="non-empty"):
            k("bio", 2010)._replace(field_id="")


class TestCellCounts:
    def test_totals_and_proportion(self):
        cell = CellCounts(3, 9)
        assert cell.mentioned + cell.not_mentioned == 12
        assert cell.mentioned / (cell.mentioned + cell.not_mentioned) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(InputDataError):
            CellCounts(-1, 2)


class TestBuildProfiles:
    def test_counts_and_dichotomization(self):
        records = [
            rec("p1", "bio", mentions=5),
            rec("p2", "bio", mentions=1),
            rec("p3", "bio", mentions=0),
            rec("p4", "chem", mentions=0),
        ]
        world, groups = build_profiles(table(records), [("p1", "g"), ("p3", "g")])
        assert cells(world) == {k("bio"): (2, 1), k("chem"): (0, 1)}
        assert cells(groups["g"]) == {k("bio"): (1, 1)}

    def test_multi_field_paper_counts_in_each_stratum(self):
        records = [rec("p1", "bio", mentions=2), rec("p1", "chem", mentions=2)]
        world, groups = build_profiles(table(records), [("p1", "g")])
        assert world.total_papers == 2
        assert cells(groups["g"]) == {k("bio"): (1, 0), k("chem"): (1, 0)}

    def test_input_order_does_not_matter(self):
        records = [rec(f"p{i}", f"f{i % 3}", mentions=i % 2) for i in range(30)]
        pairs = [(f"p{i}", "g") for i in range(0, 30, 2)]
        world_a, groups_a = build_profiles(table(records), pairs)
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        pairs_shuffled = pairs[::-1]
        world_b, groups_b = build_profiles(table(shuffled), pairs_shuffled)
        assert world_a == world_b
        assert groups_a == groups_b

    def test_duplicate_assignment_rejected(self):
        records = [rec("p1", "bio"), rec("p1", "bio")]
        with pytest.raises(InputDataError, match="more than once"):
            build_profiles(table(records), [])

    def test_unknown_membership_paper_rejected(self):
        with pytest.raises(InputDataError, match="unknown paper"):
            build_profiles(table([rec("p1", "bio")]), [("ghost", "g")])

    def test_reserved_world_label_rejected(self):
        with pytest.raises(InputDataError, match="reserved"):
            build_profiles(table([rec("p1", "bio")]), [("p1", "world")])

    def test_negative_mentions_rejected(self):
        with pytest.raises(InputDataError, match="negative"):
            build_profiles(table([rec("p1", "bio", mentions=-1)]), [])

    def test_year_out_of_range_rejected(self):
        with pytest.raises(InputDataError, match="outside"):
            build_profiles(table([rec("p1", "bio", year=1850)]), [])

    def test_counts_distinct_papers_and_pairs(self):
        records = [rec("p1", "bio"), rec("p1", "chem"), rec("p2", "bio")]
        profiles = build_profiles(table(records), [("p1", "g"), ("p2", "g"), ("p1", "g")])
        assert (profiles.papers, profiles.pairs) == (2, 2)

    def test_duplicate_membership_collapsed_with_warning(self, caplog):
        records = [rec("p1", "bio")]
        with caplog.at_level(logging.WARNING, logger="zinorm.profiles"):
            world, groups = build_profiles(
                table(records), [("p1", "g"), ("p1", "g")]
            )
        cell = cells(groups["g"])[k("bio")]
        assert cell.mentioned + cell.not_mentioned == 1
        assert any("duplicate" in r.message for r in caplog.records)


class TestApplyFilters:
    def _profiles(self):
        world = CountProfile(
            "world",
            {
                k("big"): CellCounts(30, 70),
                k("exact"): CellCounts(4, 6),
                k("small"): CellCounts(2, 3),
                k("zero"): CellCounts(0, 20),
            },
        )
        groups = {
            "g": CountProfile(
                "g", {k("big"): CellCounts(5, 5), k("zero"): CellCounts(0, 4)}
            )
        }
        return world, groups

    def test_min_stratum_papers(self):
        world, groups = self._profiles()
        result = apply_filters(world, groups, FilterConfig(min_stratum_papers=10))
        assert k("small") not in result.world.strata()
        assert k("exact") in result.world.strata()  # exactly 10 papers is enough
        assert k("zero") in result.world.strata()
        reasons = dict(result.removed)
        assert "fewer than 10" in reasons[k("small")]

    def test_zero_handling_drop_removes_zero_world_cells(self):
        world, groups = self._profiles()
        result = apply_filters(
            world,
            groups,
            FilterConfig(min_stratum_papers=0, zero_handling="drop"),
        )
        assert k("zero") not in result.world.strata()
        assert k("zero") not in result.groups["g"].strata()
        reasons = dict(result.removed)
        assert "no mentioned papers" in reasons[k("zero")]

    def test_zero_handling_correct_keeps_zero_cells(self):
        world, groups = self._profiles()
        result = apply_filters(
            world,
            groups,
            FilterConfig(min_stratum_papers=0, zero_handling="correct"),
        )
        assert k("zero") in result.world.strata()

    def test_restriction_runs_before_min_papers(self):
        world, groups = self._profiles()
        config = FilterConfig(
            min_stratum_papers=10, restrict_to_group_strata="g"
        )
        result = apply_filters(world, groups, config)
        assert set(result.world.strata()) == {k("big"), k("zero")}
        reasons = dict(result.removed)
        # 'small' is outside the group's strata, so that reason wins even
        # though it is also below the minimum size
        assert "outside the strata" in reasons[k("small")]

    def test_restriction_unknown_group(self):
        world, groups = self._profiles()
        with pytest.raises(InputDataError, match="unknown reference group"):
            apply_filters(
                world, groups, FilterConfig(restrict_to_group_strata="nope")
            )

    def test_everything_removed_is_degenerate(self):
        world, groups = self._profiles()
        with pytest.raises(DegenerateComputationError, match="no strata remain"):
            apply_filters(world, groups, FilterConfig(min_stratum_papers=1000))

    def test_filterconfig_validation(self):
        with pytest.raises(InputDataError):
            FilterConfig(min_stratum_papers=-1)
        with pytest.raises(InputDataError):
            FilterConfig(zero_handling="explode")


class TestContinuityCorrect:
    def test_world_zero_with_two_groups(self):
        # the worked-example zero stratum: (0,20) world, (0,10) per group
        world = CountProfile("world", {k("cat4"): CellCounts(0, 20)})
        groups = {
            "setA": CountProfile("setA", {k("cat4"): CellCounts(0, 10)}),
            "setB": CountProfile("setB", {k("cat4"): CellCounts(0, 10)}),
        }
        result = continuity_correct(world, groups)
        assert cells(result.world)[k("cat4")] == (1.0, 21.0)
        assert cells(result.groups["setA"])[k("cat4")] == (0.5, 10.5)
        assert cells(result.groups["setB"])[k("cat4")] == (0.5, 10.5)
        assert len(result.notes) == 3

    def test_world_zero_single_group(self):
        world = CountProfile("world", {k("f"): CellCounts(0, 6)})
        groups = {"g": CountProfile("g", {k("f"): CellCounts(0, 6)})}
        result = continuity_correct(world, groups)
        assert cells(result.world)[k("f")] == (0.5, 6.5)
        assert cells(result.groups["g"])[k("f")] == (0.5, 6.5)

    def test_world_zero_no_groups_present(self):
        world = CountProfile("world", {k("f"): CellCounts(0, 6)})
        result = continuity_correct(world, {})
        assert cells(result.world)[k("f")] == (0.5, 6.5)

    def test_group_zero_world_positive(self):
        world = CountProfile("world", {k("f"): CellCounts(4, 6)})
        groups = {"g": CountProfile("g", {k("f"): CellCounts(0, 3)})}
        result = continuity_correct(world, groups)
        assert cells(result.world)[k("f")] == (4, 6)
        assert cells(result.groups["g"])[k("f")] == (0.5, 3.5)

    def test_positive_cells_untouched(self):
        world = CountProfile("world", {k("f"): CellCounts(4, 6)})
        groups = {"g": CountProfile("g", {k("f"): CellCounts(2, 2)})}
        result = continuity_correct(world, groups)
        assert result.world == world
        assert result.groups["g"] == groups["g"]
        assert result.notes == ()

    def test_idempotent(self):
        world = CountProfile(
            "world", {k("a"): CellCounts(0, 20), k("b"): CellCounts(5, 5)}
        )
        groups = {
            "g": CountProfile(
                "g", {k("a"): CellCounts(0, 10), k("b"): CellCounts(0, 2)}
            )
        }
        once = continuity_correct(world, groups)
        twice = continuity_correct(once.world, once.groups)
        assert twice.world == once.world
        assert twice.groups == once.groups
        assert twice.notes == ()

    def test_group_without_papers_in_a_stratum_is_not_present(self):
        # README "Zero handling": a group with no papers in a stratum is not
        # present there. Only a library-made CellCounts(0, 0) reaches this.
        world = CountProfile(
            "world", {k("f"): CellCounts(0, 6), k("h"): CellCounts(4, 6)}
        )
        groups = {
            "g": CountProfile("g", {k("f"): CellCounts(0, 0), k("h"): CellCounts(0, 0)})
        }
        result = continuity_correct(world, groups)
        assert cells(result.groups["g"]) == {k("f"): (0, 0), k("h"): (0, 0)}
        assert cells(result.world)[k("f")] == (0.5, 6.5)
        assert cells(result.world)[k("h")] == (4, 6)
        assert result.notes == ("stratum f/2010: world mentioned cell corrected by 0.5",)

    def test_corrected_world_still_dominates_group_sum(self):
        world = CountProfile("world", {k("f"): CellCounts(0, 30)})
        groups = {
            name: CountProfile(name, {k("f"): CellCounts(0, 10)})
            for name in ("a", "b", "c")
        }
        result = continuity_correct(world, groups)
        total_mentioned = sum(
            cells(result.groups[name])[k("f")].mentioned for name in groups
        )
        assert cells(result.world)[k("f")].mentioned >= total_mentioned


@st.composite
def sparse_worlds(draw):
    """World cells and each group's cells per stratum, as `build_profiles` inputs.

    Cells run 0-6; a world stratum may have no mentioned papers, and a
    group may hold all of a stratum's papers. A group holds the first of
    the stratum's mentioned and unmentioned papers, so groups overlap.
    """
    labels = draw(st.permutations(["m", "b", "z", "a"]))[: draw(st.integers(1, 4))]
    strata = {}
    for i in range(draw(st.integers(1, 6))):
        c = draw(st.one_of(st.just(0), st.integers(0, 6)))
        d = draw(st.integers(0, 6))
        if c + d == 0:
            continue
        held = {}
        for label in labels:
            if draw(st.integers(0, 3)) == 0:
                held[label] = (c, d)
            else:
                held[label] = (draw(st.integers(0, c)), draw(st.integers(0, d)))
        strata[k(f"f{i}", 2000 + i % 2)] = ((c, d), held)
    rows, pairs = [], []
    for key, ((c, d), held) in strata.items():
        mentioned = [f"{key}:m{j}" for j in range(c)]
        unmentioned = [f"{key}:u{j}" for j in range(d)]
        rows += [(paper, key.field_id, key.year, 1) for paper in mentioned]
        rows += [(paper, key.field_id, key.year, 0) for paper in unmentioned]
        for label, (a, b) in held.items():
            pairs += [(paper, label) for paper in mentioned[:a] + unmentioned[:b]]
    return strata, rows, pairs


def readme_correction(strata):
    """README "Zero handling", restated: corrected cells and the notes.

    A world stratum with no mentioned papers gains 0.5 on each cell per
    group present there (at least 0.5), and each present group 0.5 on each
    cell; where only a group has no mentioned papers, only it gains 0.5.
    Notes run by stratum, the world first, then the groups by label.
    """
    world, groups, notes = {}, {}, []
    for key in sorted(strata):
        (c, d), held = strata[key]
        present = sorted(label for label, (a, b) in held.items() if a + b > 0)
        added = 0.5 * max(len(present), 1) if c == 0 else 0.0
        world[key] = (c + added, d + added)
        if added:
            notes.append(f"stratum {key}: world mentioned cell corrected by {added:g}")
        for label in present:
            a, b = held[label]
            half = 0.5 if a == 0 or c == 0 else 0.0
            groups.setdefault(label, {})[key] = (a + half, b + half)
            if half:
                notes.append(f"stratum {key}: group {label!r} mentioned cell corrected by 0.5")
    return world, groups, tuple(notes)


@given(sparse_worlds())
def test_correction_follows_readme_and_mnpc_refuses_only_the_known_defect(drawn):
    strata, rows, pairs = drawn
    assume(rows)
    world, groups = build_profiles(table(rows), pairs)
    result = continuity_correct(world, groups)
    expected_world, expected_groups, expected_notes = readme_correction(strata)
    assert cells(result.world) == expected_world
    assert {label: cells(p) for label, p in result.groups.items()} == expected_groups
    assert result.notes == expected_notes
    for label, profile in result.groups.items():
        # The known defect: a group with no mentioned papers where the
        # world has some, holding all of the stratum's unmentioned papers,
        # gets more unmentioned papers than the world.
        defect = any(
            c > 0 and a == 0 and b == d > 0
            for (c, d), held in strata.values()
            for a, b in [held[label]]
        )
        if defect:
            with pytest.raises(InputDataError, match="counts exceed the world counts"):
                mnpc(profile, result.world)
        else:
            mnpc(profile, result.world)


def _interleaved_profiles():
    """Ten strata whose filter reasons and corrections interleave by key."""
    world = CountProfile(
        "world",
        {
            k("a"): CellCounts(5, 15),
            k("b"): CellCounts(3, 2),  # outside 'ref' (and small)
            k("c"): CellCounts(0, 20),  # no mentioned
            k("d"): CellCounts(1, 4),  # small
            k("e"): CellCounts(12, 0),  # no unmentioned
            k("f"): CellCounts(0, 30),  # no mentioned
            k("g"): CellCounts(2, 3),  # small
            k("h"): CellCounts(15, 0),  # no unmentioned
            k("i"): CellCounts(6, 6),  # outside 'ref'
            k("j"): CellCounts(2, 20),
        },
    )
    cells = {
        "setB": {"a": (0, 5), "c": (0, 5), "f": (0, 5), "i": (2, 2), "j": (1, 5)},
        "setA": {"b": (1, 1), "c": (0, 3), "j": (0, 5)},
        "ref": {
            "a": (1, 5), "c": (0, 10), "d": (1, 1), "e": (5, 0),
            "f": (0, 10), "g": (1, 1), "h": (5, 0), "j": (0, 10),
        },
    }
    groups = {
        label: CountProfile(label, {k(f): CellCounts(*c) for f, c in by_key.items()})
        for label, by_key in cells.items()
    }
    return world, groups


def test_filter_and_correction_order():
    # Removals run by filter, then by key, with the two zero-cell reasons
    # interleaved; correction notes run by key, world first, then groups
    # by label.
    world, groups = _interleaved_profiles()
    dropped = apply_filters(
        world,
        groups,
        FilterConfig(
            min_stratum_papers=10, restrict_to_group_strata="ref", zero_handling="drop"
        ),
    )
    assert dropped.removed == (
        (k("b"), "outside the strata of group 'ref'"),
        (k("i"), "outside the strata of group 'ref'"),
        (k("d"), "world stratum has 5 papers, fewer than 10"),
        (k("g"), "world stratum has 5 papers, fewer than 10"),
        (k("c"), "world stratum has no mentioned papers"),
        (k("e"), "world stratum has no unmentioned papers"),
        (k("f"), "world stratum has no mentioned papers"),
        (k("h"), "world stratum has no unmentioned papers"),
    )
    assert dropped.world.strata() == (k("a"), k("j"))

    kept = apply_filters(
        world, groups, FilterConfig(restrict_to_group_strata="ref")
    )
    assert kept.world.strata() == tuple(k(f) for f in "acefhj")
    corrected = continuity_correct(kept.world, kept.groups)
    assert corrected.notes == (
        "stratum a/2010: group 'setB' mentioned cell corrected by 0.5",
        "stratum c/2010: world mentioned cell corrected by 1.5",
        "stratum c/2010: group 'ref' mentioned cell corrected by 0.5",
        "stratum c/2010: group 'setA' mentioned cell corrected by 0.5",
        "stratum c/2010: group 'setB' mentioned cell corrected by 0.5",
        "stratum f/2010: world mentioned cell corrected by 1",
        "stratum f/2010: group 'ref' mentioned cell corrected by 0.5",
        "stratum f/2010: group 'setB' mentioned cell corrected by 0.5",
        "stratum j/2010: group 'ref' mentioned cell corrected by 0.5",
        "stratum j/2010: group 'setA' mentioned cell corrected by 0.5",
    )
    assert cells(corrected.world)[k("c")] == (1.5, 21.5)
    assert cells(corrected.groups["setB"])[k("j")] == (1, 5)


def test_group_stratum_absent_from_world_rejected():
    world = CountProfile("world", {k("a"): CellCounts(4, 6)})
    groups = {
        "g": CountProfile("g", {k("a"): CellCounts(1, 1), k("x"): CellCounts(1, 0)})
    }
    message = "group 'g' has strata absent from the world profile: x/2010"
    with pytest.raises(InputDataError, match=message):
        apply_filters(world, groups, FilterConfig(min_stratum_papers=0))
    with pytest.raises(InputDataError, match=message):
        continuity_correct(world, groups)


class TestCountProfile:
    def test_iteration_is_sorted(self):
        profile = CountProfile(
            "p", {k("b"): CellCounts(1, 1), k("a"): CellCounts(2, 2)}
        )
        assert profile.strata() == (k("a"), k("b"))

    def test_totals(self):
        profile = CountProfile(
            "p", {k("a"): CellCounts(1, 3), k("b"): CellCounts(2, 2)}
        )
        assert profile.total_papers == 8
        assert profile.counts[:, 0].sum() == 3
