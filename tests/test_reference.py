"""Printed formulas checked against references written from their papers.

The Mantel-Haenszel quotient and its Robins-Breslow-Greenland variance
(Robins, Breslow & Greenland 1986, Biometrics 42:311), and EMNPC and MNPC
with their intervals (Haunschild & Bornmann 2018), are summed here in exact
`Fraction` arithmetic, stratum by stratum. Only the square roots, the
exponentials and the 1.96 quantile are taken at the end, in floats: for
MNPC, at the end of each stratum's interval.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinorm import (
    CountProfile,
    DegenerateComputationError,
    StratumKey,
    emnpc,
    mhq,
    mhq_prime,
    mnpc,
)


def mh_reference(tables):
    """Value, bounds and contributing strata of the MH quotient, or None.

    `tables` holds one (a, b, c, d) per stratum: the group's mentioned and
    unmentioned papers, then the comparison row's. None means the pooled
    numerator R or denominator S is zero.
    """
    r_sum = s_sum = pr = ps_qr = qs = Fraction(0)
    used = 0
    for a, b, c, d in tables:
        n = a + b + c + d
        r, s = Fraction(a * d, n), Fraction(b * c, n)
        p, q = Fraction(a + d, n), Fraction(b + c, n)
        r_sum, s_sum = r_sum + r, s_sum + s
        pr, ps_qr, qs = pr + p * r, ps_qr + p * s + q * r, qs + q * s
        used += r > 0 or s > 0
    if r_sum == 0 or s_sum == 0:
        return None
    variance = pr / (2 * r_sum**2) + ps_qr / (2 * r_sum * s_sum) + qs / (2 * s_sum**2)
    half_width = 1.96 * math.sqrt(variance)
    value = float(r_sum / s_sum)
    return value, value * math.exp(-half_width), value * math.exp(half_width), used


def emnpc_reference(tables, world_only=()):
    """Value, bounds and strata of EMNPC, or None where an equalized proportion is zero.

    `world_only` holds the (c, d) cells of world strata where the group has
    no papers; the world's equalized proportion averages over them too.
    """
    group = [Fraction(a, a + b) for a, b, _, _ in tables]
    world = [Fraction(c, c + d) for _, _, c, d in tables] + [
        Fraction(c, c + d) for c, d in world_only
    ]
    p_g, p_w = sum(group) / len(group), sum(world) / len(world)
    if p_g == 0 or p_w == 0:
        return None
    n_g = sum(a + b for a, b, _, _ in tables)
    n_w = sum(c + d for _, _, c, d in tables) + sum(c + d for c, d in world_only)
    variance = (1 - p_g) / p_g / n_g + (1 - p_w) / p_w / n_w
    half_width = 1.96 * math.sqrt(variance)
    value = float(p_g / p_w)
    return value, value * math.exp(-half_width), value * math.exp(half_width), len(tables)


def mnpc_terms(tables):
    """Each stratum's weight, ratio and log-scale variance, or None if a proportion is zero."""
    n_g = sum(a + b for a, b, _, _ in tables)
    terms = []
    for a, b, c, d in tables:
        p_g, p_w = Fraction(a, a + b), Fraction(c, c + d)
        if p_g == 0 or p_w == 0:
            return None
        variance = (1 - p_g) / p_g / (a + b) + (1 - p_w) / p_w / (c + d)
        terms.append((Fraction(a + b, n_g), p_g / p_w, variance))
    return terms


def mnpc_reference(tables):
    """Value, bounds and strata of MNPC, or None where a stratum's proportion is zero.

    The bounds offset the weighted mean of the stratum ratios by the
    weighted offsets of the stratum intervals.
    """
    terms = mnpc_terms(tables)
    if terms is None:
        return None
    value = sum(w * ratio for w, ratio, _ in terms)
    below = above = 0.0
    for w, ratio, variance in terms:
        half_width = 1.96 * math.sqrt(variance)
        below += float(w * ratio) * (1.0 - math.exp(-half_width))
        above += float(w * ratio) * (math.exp(half_width) - 1.0)
    return float(value), float(value) - below, float(value) + above, len(tables)


def complement(tables):
    """MHq' tables: the comparison row is the world minus the group, where any is left."""
    return [(a, b, c - a, d - b) for a, b, c, d in tables if (c - a) + (d - b) > 0]


small = st.integers(0, 4)
count = small | st.integers(0, 300)


@st.composite
def stratum(draw):
    """A group cell with papers and a world cell that contains it."""
    a = draw(count)
    b = draw(count if a else count.filter(bool))
    if draw(st.integers(0, 3)) == 0:  # the group is the whole world here
        return a, b, a, b
    return a, b, a + draw(count), b + draw(count)


world_cell = st.tuples(count, count).filter(any)


def profiles(tables, world_only=()):
    """Group and world profiles; the world-only strata sort among the group's."""
    keys = tuple(StratumKey(f"f{i:02d}", 2000) for i in range(len(tables)))
    cells = np.array(tables, dtype=np.float64).reshape(-1, 4)
    extra = {StratumKey(f"f{i:02d}w", 2000): cell for i, cell in enumerate(world_only)}
    world = dict(zip(keys, cells[:, 2:].tolist())) | extra
    world_keys = tuple(sorted(world))
    return (
        CountProfile._of("g", keys, cells[:, :2].copy()),
        CountProfile._of(
            "world", world_keys, np.array([world[k] for k in world_keys], np.float64)
        ),
    )


def assert_matches(result, expected):
    value, lower, upper, used = expected
    assert result.value == pytest.approx(value, rel=1e-12, abs=0)
    assert result.ci_lower == pytest.approx(lower, rel=1e-12, abs=0)
    assert result.ci_upper == pytest.approx(upper, rel=1e-12, abs=0)
    assert result.strata_used == used


def within(value, low, high):
    return low * (1 - 1e-12) <= value <= high * (1 + 1e-12)


def odds_ratios(tables):
    """Each contributing stratum's a*d/(b*c), infinite where b*c is zero."""
    return [
        Fraction(a * d, b * c) if b * c else math.inf
        for a, b, c, d in tables
        if a * d or b * c
    ]


def check(indicator, group_and_world, expected):
    """The indicator matches `expected`, or is degenerate where that is None."""
    if expected is None:
        with pytest.raises(DegenerateComputationError):
            indicator(*group_and_world)
        return None
    result = indicator(*group_and_world)
    assert_matches(result, expected)
    return result


@pytest.mark.parametrize(
    "indicator, rows", [(mhq, list), (mhq_prime, complement)], ids=["mhq", "mhq_prime"]
)
@given(tables=st.lists(stratum(), min_size=1, max_size=8))
@settings(max_examples=200)
def test_mh_quotient_matches_exact_reference(indicator, rows, tables):
    expected = mh_reference(rows(tables)) if rows(tables) else None
    result = check(indicator, profiles(tables), expected)
    if result is not None:
        # MHq is the mean of the stratum odds ratios weighted by b*c/n, plus
        # the a*d/n of strata with b*c = 0, whose odds ratio is infinite.
        odds = odds_ratios(rows(tables))
        assert within(result.value, min(odds), max(odds))


@given(
    tables=st.lists(stratum(), min_size=1, max_size=8),
    world_only=st.lists(world_cell, max_size=3),
)
@settings(max_examples=200)
def test_emnpc_and_mnpc_match_exact_references(tables, world_only):
    # EMNPC averages the world over every world stratum; MNPC reads only the
    # group's strata, so the world-only ones change nothing.
    both = profiles(tables, world_only)
    check(emnpc, both, emnpc_reference(tables, world_only))
    result = check(mnpc, both, mnpc_reference(tables))
    if result is not None:
        # MNPC is the mean of the stratum ratios, weighted by group size.
        ratios = [ratio for _, ratio, _ in mnpc_terms(tables)]
        assert within(result.value, min(ratios), max(ratios))


def test_reference_on_hand_sums():
    # One stratum: R = 2*3/10, S = 1*4/10, P = 5/10, Q = 5/10.
    value, lower, upper, used = mh_reference([(2, 1, 4, 3)])
    variance = 0.5 * (0.3 / 0.36 + (0.5 * 0.4 + 0.5 * 0.6) / (0.6 * 0.4) + 0.2 / 0.16)
    assert value == 1.5
    assert lower == pytest.approx(1.5 * math.exp(-1.96 * math.sqrt(variance)), rel=1e-15)
    assert upper == pytest.approx(1.5 * math.exp(1.96 * math.sqrt(variance)), rel=1e-15)
    assert used == 1


def test_emnpc_and_mnpc_references_on_hand_sums():
    # One stratum: p_g = 2/4 and p_w = 4/16, so both indicators are 2, and
    # both variances are (1/2)/(1/2)/4 + (3/4)/(1/4)/16 = 7/16.
    half_width = 1.96 * math.sqrt(7 / 16)
    expected = (2.0, 2 * math.exp(-half_width), 2 * math.exp(half_width), 1)
    assert emnpc_reference([(2, 2, 4, 12)]) == pytest.approx(expected, rel=1e-15)
    assert mnpc_reference([(2, 2, 4, 12)]) == pytest.approx(expected, rel=1e-15)
    # A world-only stratum at p 1/4 leaves the world's mean proportion at 1/4.
    assert emnpc_reference([(2, 2, 4, 12)], [(1, 3)])[0] == 2.0
