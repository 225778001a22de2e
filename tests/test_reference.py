"""Printed formulas checked against references written from their papers.

The Mantel-Haenszel quotient and its Robins-Breslow-Greenland variance
(Robins, Breslow & Greenland 1986, Biometrics 42:311) are summed here in
exact `Fraction` arithmetic, stratum by stratum. Only the square root, the
exponential and the 1.96 quantile are taken at the end, in floats.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinorm import CountProfile, DegenerateComputationError, StratumKey, mhq, mhq_prime


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


def profiles(tables):
    keys = tuple(StratumKey(f"f{i:02d}", 2000) for i in range(len(tables)))
    cells = np.array(tables, dtype=np.float64).reshape(-1, 4)
    return (
        CountProfile._of("g", keys, cells[:, :2].copy()),
        CountProfile._of("world", keys, cells[:, 2:].copy()),
    )


@pytest.mark.parametrize(
    "indicator, rows", [(mhq, list), (mhq_prime, complement)], ids=["mhq", "mhq_prime"]
)
@given(tables=st.lists(stratum(), min_size=1, max_size=8))
@settings(max_examples=200)
def test_mh_quotient_matches_exact_reference(indicator, rows, tables):
    expected = mh_reference(rows(tables)) if rows(tables) else None
    if expected is None:
        with pytest.raises(DegenerateComputationError):
            indicator(*profiles(tables))
        return
    result = indicator(*profiles(tables))
    value, lower, upper, used = expected
    assert result.value == pytest.approx(value, rel=1e-12, abs=0)
    assert result.ci_lower == pytest.approx(lower, rel=1e-12, abs=0)
    assert result.ci_upper == pytest.approx(upper, rel=1e-12, abs=0)
    assert result.strata_used == used


def test_reference_on_hand_sums():
    # One stratum: R = 2*3/10, S = 1*4/10, P = 5/10, Q = 5/10.
    value, lower, upper, used = mh_reference([(2, 1, 4, 3)])
    variance = 0.5 * (0.3 / 0.36 + (0.5 * 0.4 + 0.5 * 0.6) / (0.6 * 0.4) + 0.2 / 0.16)
    assert value == 1.5
    assert lower == pytest.approx(1.5 * math.exp(-1.96 * math.sqrt(variance)), rel=1e-15)
    assert upper == pytest.approx(1.5 * math.exp(1.96 * math.sqrt(variance)), rel=1e-15)
    assert used == 1
