import math

import numpy as np
import pytest

from zinorm import (
    CellCounts,
    CountProfile,
    DegenerateComputationError,
    IndicatorKind,
    IndicatorResult,
    InputDataError,
    StratumKey,
    continuity_correct,
    emnpc,
    mhq,
    mhq_prime,
    mnpc,
    percent_vs_world,
)
from zinorm.indicators import _equalized, mh_quotient_arrays, mnpc_arrays
from zinorm.profiles import corrected_cells
from zinorm.report import result_payload

from conftest import cells


def k(field, year=2010):
    return StratumKey(field, year)


def profile(label, cells):
    return CountProfile(
        label, {k(f): CellCounts(m, u) for f, (m, u) in cells.items()}
    )


@pytest.fixture(scope="module")
def worked_example(small_world):
    world, groups = small_world
    return world, groups["setA"], groups["setB"]


# Frozen oracle values for the worked example (independent direct-formula
# computation, cross-checked against statsmodels where applicable).
EMNPC_GOLDEN = {
    "setA": (0.940062, 0.707551, 1.248978),
    "setB": (1.030660, 0.773551, 1.373226),
    "world": (1.000000, 0.794099, 1.259288),
}
MNPC_GOLDEN = {
    "setA": (0.942407, 0.556659, 4.660275),
    "setB": (1.070391, 0.672618, 5.509656),
    "world": (1.000000, 0.650329, 3.230865),
}
MHQ_GOLDEN = {
    "setA": (0.810306, 0.455371, 1.441893),
    "setB": (1.296251, 0.663940, 2.530750),
    "world": (1.000000, 0.608046, 1.644612),
}
MHQ_PRIME_GOLDEN = {
    "setA": (0.614817, 0.295351, 1.279834),
    "setB": (1.626500, 0.781351, 3.385805),
}


def assert_result(result, golden, tol=1e-6):
    value, lower, upper = golden
    assert result.value == pytest.approx(value, abs=tol)
    assert result.ci_lower == pytest.approx(lower, abs=tol)
    assert result.ci_upper == pytest.approx(upper, abs=tol)


class TestProportions:
    def test_pooled_and_equalized_on_fixture(self, worked_example):
        world, set_a, _ = worked_example

        def pooled(profile):
            return profile.counts[:, 0].sum() / profile.counts.sum()

        def equalized(profile):
            return (profile.counts[:, 0] / profile.counts.sum(axis=1)).mean()

        assert pooled(world) == pytest.approx(0.569620, abs=1e-6)
        assert pooled(set_a) == pytest.approx(0.528736, abs=1e-6)
        assert equalized(world) == pytest.approx(0.477776, abs=1e-6)
        assert equalized(set_a) == pytest.approx(0.449139, abs=1e-6)


class TestEmnpc:
    def test_golden_values(self, worked_example):
        world, set_a, set_b = worked_example
        assert_result(emnpc(set_a, world), EMNPC_GOLDEN["setA"])
        assert_result(emnpc(set_b, world), EMNPC_GOLDEN["setB"])
        assert_result(emnpc(world, world), EMNPC_GOLDEN["world"])

    def test_strata_used_and_notes(self, worked_example):
        world, set_a, _ = worked_example
        result = emnpc(set_a, world)
        assert result.strata_used == 4
        assert any("pooled" in note for note in result.notes)

    def test_zero_proportion_degenerate(self):
        world = profile("world", {"a": (5, 5)})
        group = profile("g", {"a": (0, 4)})
        with pytest.raises(DegenerateComputationError, match="continuity"):
            emnpc(group, world)

    def test_group_stratum_missing_from_world(self):
        world = profile("world", {"a": (5, 5)})
        group = profile("g", {"b": (1, 1)})
        with pytest.raises(InputDataError, match="absent from the world"):
            emnpc(group, world)


class TestMnpc:
    def test_golden_values_on_corrected_profiles(self, small_world):
        world, groups = small_world
        corrected = continuity_correct(world, groups)
        assert_result(
            mnpc(corrected.groups["setA"], corrected.world), MNPC_GOLDEN["setA"]
        )
        assert_result(
            mnpc(corrected.groups["setB"], corrected.world), MNPC_GOLDEN["setB"]
        )
        assert_result(mnpc(corrected.world, corrected.world), MNPC_GOLDEN["world"])

    def test_single_stratum_example(self):
        # group 3/4 mentioned, world proportion 0.5 -> (3 * 1/0.5) / 4
        world = profile("world", {"a": (4, 4)})
        group = profile("g", {"a": (3, 1)})
        assert mnpc(group, world).value == pytest.approx(1.5)

    def test_zero_world_cell_degenerate(self):
        world = profile("world", {"a": (0, 10)})
        group = profile("g", {"a": (0, 5)})
        with pytest.raises(DegenerateComputationError, match="continuity"):
            mnpc(group, world)

    def test_zero_group_cell_degenerate(self):
        world = profile("world", {"a": (5, 5)})
        group = profile("g", {"a": (0, 4)})
        with pytest.raises(DegenerateComputationError, match="continuity"):
            mnpc(group, world)

    def test_lower_bound_stays_positive(self, small_world):
        world, groups = small_world
        corrected = continuity_correct(world, groups)
        result = mnpc(corrected.groups["setA"], corrected.world)
        assert result.ci_lower > 0


class TestMhq:
    def test_golden_values(self, worked_example):
        world, set_a, set_b = worked_example
        assert_result(mhq(set_a, world), MHQ_GOLDEN["setA"])
        assert_result(mhq(set_b, world), MHQ_GOLDEN["setB"])
        assert_result(mhq(world, world), MHQ_GOLDEN["world"])

    def test_empty_stratum_skipped_with_note(self, worked_example):
        world, set_a, _ = worked_example
        result = mhq(set_a, world)
        assert result.strata_used == 3
        assert any("contributed nothing" in note for note in result.notes)

    def test_single_stratum_equals_odds_ratio(self):
        world = profile("world", {"a": (4, 4)})
        group = profile("g", {"a": (3, 1)})
        # OR of (3,1) vs (4,4) = (3*4)/(1*4)
        assert mhq(group, world).value == pytest.approx(3.0, abs=1e-12)

    def test_dominance_violation_rejected(self):
        world = profile("world", {"a": (2, 5)})
        group = profile("g", {"a": (3, 1)})
        with pytest.raises(InputDataError, match="exceed the world"):
            mhq(group, world)

    def test_all_strata_empty_degenerate(self):
        world = profile("world", {"a": (0, 5), "b": (0, 7)})
        group = profile("g", {"a": (0, 2), "b": (0, 3)})
        with pytest.raises(DegenerateComputationError, match="numerator"):
            mhq(group, world)

    def test_statsmodels_cross_check(self, worked_example):
        statsmodels_ct = pytest.importorskip(
            "statsmodels.stats.contingency_tables", reason="cross-check oracle"
        )
        world, set_a, set_b = worked_example
        for group in (set_a, set_b):
            tables = []
            world_cells = cells(world)
            for key, g in cells(group).items():
                w = world_cells[key]
                tables.append(
                    [[g.mentioned, g.not_mentioned], [w.mentioned, w.not_mentioned]]
                )
            st = statsmodels_ct.StratifiedTable(
                [np.asarray(t, dtype=float).reshape(2, 2) for t in tables]
            )
            ours = mhq(group, world)
            assert ours.value == pytest.approx(st.oddsratio_pooled, rel=1e-10)
            lo, hi = st.oddsratio_pooled_confint()
            # statsmodels uses z = 1.959964; the fixed 1.96 shifts bounds ~0.002%
            assert ours.ci_lower == pytest.approx(lo, rel=2e-3)
            assert ours.ci_upper == pytest.approx(hi, rel=2e-3)


class TestMhqPrime:
    def test_golden_values(self, worked_example):
        world, set_a, set_b = worked_example
        assert_result(mhq_prime(set_a, world), MHQ_PRIME_GOLDEN["setA"])
        assert_result(mhq_prime(set_b, world), MHQ_PRIME_GOLDEN["setB"])

    def test_partition_reciprocity(self, worked_example):
        # setA and setB partition the world, so each is the other's complement
        world, set_a, set_b = worked_example
        a = mhq_prime(set_a, world)
        b = mhq_prime(set_b, world)
        assert a.value * b.value == pytest.approx(1.0, rel=1e-12)

    def test_single_stratum(self):
        world = profile("world", {"a": (4, 4)})
        group = profile("g", {"a": (3, 1)})
        # complement row is (1, 3): OR = (3*3)/(1*1)
        assert mhq_prime(group, world).value == pytest.approx(9.0, abs=1e-12)

    def test_group_equal_to_world_everywhere_degenerate(self):
        world = profile("world", {"a": (3, 4)})
        group = profile("g", {"a": (3, 4)})
        with pytest.raises(DegenerateComputationError, match="entire world"):
            mhq_prime(group, world)

    def test_partial_world_equality_skipped_with_note(self):
        world = profile("world", {"a": (3, 4), "b": (6, 6)})
        group = profile("g", {"a": (3, 4), "b": (3, 1)})
        result = mhq_prime(group, world)
        assert result.strata_used == 1
        assert any("entire world" in note for note in result.notes)
        # only stratum b contributes: (3,1) vs complement (3,5)
        assert result.value == pytest.approx((3 * 5) / (1 * 3), abs=1e-12)


class TestResultInvariants:
    def test_bounds_must_bracket_value(self):
        with pytest.raises(DegenerateComputationError):
            IndicatorResult(IndicatorKind.MHQ, 1.0, 1.2, 1.4, 1)

    def test_positive_finite_required(self):
        with pytest.raises(DegenerateComputationError):
            IndicatorResult(IndicatorKind.MHQ, float("inf"), 1.0, 2.0, 1)
        with pytest.raises(DegenerateComputationError):
            IndicatorResult(IndicatorKind.MHQ, -1.0, -2.0, 2.0, 1)

    def test_strata_used_positive(self):
        with pytest.raises(DegenerateComputationError):
            IndicatorResult(IndicatorKind.MHQ, 1.0, 0.5, 2.0, 0)


class TestPercentVsWorld:
    def test_examples(self):
        assert percent_vs_world(0.940062) == pytest.approx(-5.9938, abs=1e-3)
        assert percent_vs_world(15.18) == pytest.approx(1418.0)
        assert percent_vs_world(1.0) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DegenerateComputationError):
            percent_vs_world(0.0)
        with pytest.raises(DegenerateComputationError):
            percent_vs_world(float("nan"))

    def test_result_property(self, worked_example):
        # A result's percentage is the one its payload prints.
        world, set_a, _ = worked_example
        result = mhq(set_a, world)
        assert result_payload(result)["percent_vs_world"] == pytest.approx(
            100 * (result.value - 1)
        )


def test_mh_internals_match_hand_accumulation(worked_example):
    # acceptance re-derivation: R/S sums for the worked example
    from zinorm._kernels import mh_accumulate

    world, set_a, set_b = worked_example
    for group, (r_expected, s_expected) in (
        (set_a, (10.338045, 12.758195)),
        (set_b, (9.949060, 7.675258)),
    ):
        world_cells = cells(world)
        a, b, c, d = [], [], [], []
        for key, (mentioned, not_mentioned) in cells(group).items():
            a.append(mentioned)
            b.append(not_mentioned)
            c.append(world_cells[key].mentioned)
            d.append(world_cells[key].not_mentioned)
        r, s, *_ = mh_accumulate(a, b, c, d)
        assert r == pytest.approx(r_expected, abs=1e-5)
        assert s == pytest.approx(s_expected, abs=1e-5)


def test_array_core_gives_the_same_bits_in_given_buffers():
    # The coverage experiment passes scratch buffers (float64, then bool)
    # to the array core; the results must not move by a bit, and the
    # inputs must not change.
    rng = np.random.default_rng(12)
    shape = (7, 33)
    m = rng.integers(1, 30, shape[1]).astype(float)
    a = np.floor(rng.random(shape) * (m + 1))
    a[:, ::5] = 0
    c = a + np.floor(rng.random(shape) * 40)
    c[:, ::7] = a[:, ::7] = 0
    n = m + 40
    b, d = m - a, n - c
    present = rng.integers(0, 3, shape[1])
    cells_before = [x.copy() for x in (a, b, c, d)]

    def buffers(floats, flags):
        return (
            *(np.full(shape, np.nan) for _ in range(floats)),
            *(np.ones(shape, dtype=bool) for _ in range(flags)),
        )

    a_c, b_c, c_c, d_c, _ = corrected_cells(a, b, c, d, present)
    m_c, n_c = a_c + b_c, c_c + d_c
    for got, want in (
        (
            corrected_cells(a, b, c, d, present, out=buffers(6, 3)),
            corrected_cells(a, b, c, d, present),
        ),
        (
            mnpc_arrays(a_c, m_c, c_c, n_c, out=buffers(6, 2)),
            mnpc_arrays(a_c, m_c, c_c, n_c),
        ),
        (
            mh_quotient_arrays(a, b, c, d, n=m + n, out=buffers(5, 2)),
            mh_quotient_arrays(a, b, c, d),
        ),
        ([_equalized(a, m, out=buffers(1, 0)[0])], [_equalized(a, m)]),
    ):
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype
            assert np.array_equal(x, y, equal_nan=True)
    for x, before in zip((a, b, c, d), cells_before):
        assert np.array_equal(x, before)
