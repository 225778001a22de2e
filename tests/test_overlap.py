import pytest

from zinorm import (
    DegenerateComputationError,
    IndicatorKind,
    IndicatorResult,
    OverlapCategory,
    classify_overlap,
    mhq,
)


def result(value, lower, upper):
    return IndicatorResult(IndicatorKind.MHQ, value, lower, upper, 1)


class TestCategories:
    def test_gap(self):
        verdict = classify_overlap(result(1.0, 0.8, 1.2), result(2.0, 1.5, 2.5))
        assert verdict.category is OverlapCategory.GAP
        assert verdict.p_label == "p < .01"
        assert verdict.overlap_proportion < 0

    def test_touch(self):
        verdict = classify_overlap(result(1.0, 0.5, 2.0), result(3.0, 2.0, 4.0))
        assert verdict.category is OverlapCategory.TOUCH
        assert verdict.p_label == "p ≈ .01"
        assert verdict.overlap_proportion == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "lower, higher, overlap",
        [
            (result(1.5e-9, 0.5e-9, 2e-9), result(3e-9, 1e-9, 4e-9), 1e-9),
            (result(0.75e-9, 0.5e-9, 1e-9), result(3e-9, 2e-9, 4e-9), -1e-9),
        ],
        ids=["plus", "minus"],
    )
    def test_touch_band_edges_are_inclusive(self, lower, higher, overlap):
        assert min(lower.ci_upper, higher.ci_upper) - max(lower.ci_lower, higher.ci_lower) == overlap
        verdict = classify_overlap(lower, higher)
        assert verdict.category is OverlapCategory.TOUCH

    def test_moderate_boundary_half_is_inclusive(self):
        # overlap 0.1 against facing arms 0.2/0.2 -> proportion exactly 0.5
        verdict = classify_overlap(result(1.0, 0.8, 1.2), result(1.3, 1.1, 1.5))
        assert verdict.overlap_proportion == pytest.approx(0.5)
        assert verdict.category is OverlapCategory.MODERATE
        assert verdict.p_label == "p < .05"

    def test_substantial(self):
        verdict = classify_overlap(
            result(1.0, 0.8, 1.2), result(1.25, 1.06, 1.44)
        )
        assert verdict.overlap_proportion > 0.5
        assert verdict.category is OverlapCategory.SUBSTANTIAL
        assert verdict.p_label == "not significant"


class TestGeometry:
    def test_symmetry(self):
        a = result(1.0, 0.7, 1.5)
        b = result(1.4, 1.1, 1.9)
        assert classify_overlap(a, b) == classify_overlap(b, a)

    def test_containment_uses_contained_length(self):
        outer = result(2.0, 1.0, 3.0)
        inner = result(2.0, 1.8, 2.2)
        verdict = classify_overlap(outer, inner)
        # overlap equals the inner interval's full length 0.4; facing arms
        # 1.0 and 0.2 average to 0.6
        assert verdict.overlap_proportion == pytest.approx(0.4 / 0.6)
        assert verdict.category is OverlapCategory.SUBSTANTIAL
        assert verdict.arm_ratio == pytest.approx(5.0)
        assert verdict.caveat

    def test_facing_arms_define_proportion(self):
        # arms: lower result's upper arm 0.5, higher result's lower arm 0.3;
        # overlap = 1.5 - 1.2 = 0.3
        verdict = classify_overlap(result(1.0, 0.6, 1.5), result(1.5, 1.2, 1.9))
        assert verdict.overlap_proportion == pytest.approx(0.3 / 0.4)
        assert verdict.arm_ratio == pytest.approx(0.5 / 0.3)

    def test_translation_invariance(self):
        base = classify_overlap(result(1.0, 0.7, 1.5), result(1.6, 1.2, 2.1))
        shifted = classify_overlap(
            result(3.0, 2.7, 3.5), result(3.6, 3.2, 4.1)
        )
        assert base.category is shifted.category
        assert base.overlap_proportion == pytest.approx(
            shifted.overlap_proportion, rel=1e-9
        )
        assert base.arm_ratio == pytest.approx(shifted.arm_ratio, rel=1e-9)


class TestCaveat:
    def test_ratio_exactly_two_is_fine(self):
        verdict = classify_overlap(result(1.0, 0.9, 1.2), result(1.3, 1.2, 1.5))
        assert verdict.arm_ratio == pytest.approx(2.0)
        assert not verdict.caveat

    def test_ratio_above_two_flags(self):
        verdict = classify_overlap(result(1.0, 0.9, 1.25), result(1.3, 1.2, 1.5))
        assert verdict.arm_ratio > 2
        assert verdict.caveat


class TestDegenerate:
    def test_zero_arm_rejected(self):
        # The lower result's upper arm is zero, then the higher result's lower arm.
        for lower, higher in [
            (result(1.0, 0.5, 1.0), result(2.0, 1.5, 2.5)),
            (result(1.0, 0.5, 1.5), result(2.0, 2.0, 2.5)),
        ]:
            with pytest.raises(DegenerateComputationError, match="zero length"):
                classify_overlap(lower, higher)


def test_worked_example_mhq_sets_overlap_substantially(small_world):
    world, groups = small_world
    a = mhq(groups["setA"], world)
    b = mhq(groups["setB"], world)
    verdict = classify_overlap(a, b)
    assert verdict.category is OverlapCategory.SUBSTANTIAL
    assert verdict.p_label == "not significant"
    assert verdict.overlap_proportion == pytest.approx(1.233, abs=0.01)
    assert not verdict.caveat
