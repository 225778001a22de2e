import numpy as np
import pytest

from zinorm import _kernels


def _random_cells(rng, shape):
    a = rng.integers(0, 20, size=shape).astype(np.float64)
    b = rng.integers(0, 20, size=shape).astype(np.float64)
    c = a + rng.integers(0, 20, size=shape)
    d = b + rng.integers(1, 20, size=shape)
    return a, b, c, d


def test_accumulate_matches_hand_computation():
    # one stratum (3,1,4,4): n=12, r=12/12=1, s=4/12, P=7/12
    r, s, pr, cross, qs, contributing = _kernels.mh_accumulate(
        np.array([3.0]), np.array([1.0]), np.array([4.0]), np.array([4.0])
    )
    assert r == pytest.approx(1.0)
    assert s == pytest.approx(1.0 / 3.0)
    assert pr == pytest.approx(7.0 / 12.0)
    assert cross == pytest.approx((7 / 12) * (1 / 3) + (5 / 12) * 1.0)
    assert qs == pytest.approx((5 / 12) * (1 / 3))
    assert contributing == 1


def test_contributing_counts_nonzero_terms():
    a = np.array([0.0, 2.0, 0.0])
    b = np.array([0.0, 1.0, 3.0])
    c = np.array([0.0, 4.0, 0.0])
    d = np.array([5.0, 4.0, 6.0])
    # stratum 0: r = 0*5/5 = 0, s = 0*0/5 = 0 -> not contributing
    # stratum 2: r = 0, s = 3*0/9 = 0 -> not contributing
    *_, contributing = _kernels.mh_accumulate(a, b, c, d)
    assert contributing == 1


def test_batch_rows_match_single_accumulation():
    rng = np.random.default_rng(44)
    cells = _random_cells(rng, (10, 7))
    batch = _kernels.mh_batch(*cells)
    for i in range(10):
        row = _kernels.mh_accumulate(*(x[i] for x in cells))
        for j in range(5):
            assert batch[j][i] == pytest.approx(row[j], rel=1e-12)
        assert batch[5][i] == row[5]


def test_public_wrappers_accept_lists():
    out = _kernels.mh_accumulate([3], [1], [4], [4])
    assert out[0] == pytest.approx(1.0)
