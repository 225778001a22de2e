"""Mantel-Haenszel accumulation over the strata of 2x2 tables.

Each kernel consumes the four cell arrays a, b, c, d of 2x2 tables
(group mentioned / group not mentioned / world mentioned / world not
mentioned) and returns the pooled sums

    r      = sum a*d/n          (numerator weight)
    s      = sum b*c/n          (denominator weight)
    pr     = sum P*r_f          with P = (a+d)/n
    cross  = sum (P*s_f + Q*r_f)
    qs     = sum Q*s_f          with Q = 1-P
    contributing = number of strata with r_f > 0 or s_f > 0

used by the quotient value r/s and its log-scale variance. `mh_accumulate`
takes one profile's 1-D cells and returns Python scalars; `mh_batch` takes
(replications, strata) cells and returns arrays. Both evaluate the same
numpy sums. Callers must guarantee n = a+b+c+d > 0 for every stratum;
profiles built by this package never contain empty strata. `mh_batch` can
also take n and scratch buffers, so that a caller that evaluates many
blocks of replications allocates no arrays of the cells' size.
"""

from __future__ import annotations

import numpy as np


def _mh_sums(a, b, c, d, n=None, out=None):
    """Pooled sums over the last (strata) axis of float64 cell arrays.

    `n`, if given, is a+b+c+d and broadcasts against the cells. `out`, if
    given, holds five float64 and then two bool arrays shaped like the cells,
    which take the intermediates; otherwise they are allocated.
    """
    rf, sf, p, q, t, positive, flag = out or (None,) * 7
    if n is None:
        n = a + b + c + d
    rf = np.multiply(a, d, out=rf)
    rf /= n
    sf = np.multiply(b, c, out=sf)
    sf /= n
    p = np.add(a, d, out=p)
    p /= n
    q = np.subtract(1.0, p, out=q)
    pr = np.multiply(p, rf, out=t).sum(axis=-1)
    # p * sf + q * rf; p is not read again.
    t = np.multiply(p, sf, out=t)
    t += np.multiply(q, rf, out=p)
    cross = t.sum(axis=-1)
    qs = np.multiply(q, sf, out=t).sum(axis=-1)
    positive = np.greater(rf, 0.0, out=positive)
    positive |= np.greater(sf, 0.0, out=flag)
    return (
        rf.sum(axis=-1),
        sf.sum(axis=-1),
        pr,
        cross,
        qs,
        positive.sum(axis=-1),
    )


def _float_cells(*cells):
    return [np.asarray(x, dtype=np.float64) for x in cells]


def mh_accumulate(a, b, c, d):
    """Accumulate one profile's strata (1-D cells) into Python scalars."""
    r, s, pr, cross, qs, contributing = _mh_sums(*_float_cells(a, b, c, d))
    return float(r), float(s), float(pr), float(cross), float(qs), int(contributing)


def mh_batch(a, b, c, d, n=None, out=None):
    """Accumulate many replications at once; cells are (reps, strata).

    `n` and `out` are passed on to `_mh_sums`.
    """
    return _mh_sums(*_float_cells(a, b, c, d), n, out)
