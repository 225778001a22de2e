"""Exact interval coverage on small synthetic worlds, with no random draws.

A group's coverage estimates read only its own mentioned count ``a`` and
the world's ``c`` in each stratum. ``a`` is binomial, and the rest of the
world's mentioned papers, ``c - a``, is the convolution of the other
groups' and the background's binomials. So every outcome of a small world
can be listed with its exact probability, run through the same array
functions as `coverage_experiment`, and weighted.

The cells come from the spec's own fields through `group_probability`,
not from `WorldSpec.sizes` or `.probabilities`, so that those are checked
too. The correction is the README's rule, restated here: where the world
has no mentioned papers, each group present gains 0.5 mentioned and 0.5
unmentioned papers, and the world 0.5 of each per present group (at least
0.5); where only a group has none, only that group gains them. The report
refuses MNPC where a corrected group cell exceeds its world cell, and
coverage counts that as degenerate.
"""

import math

import numpy as np

from zinorm import group_probability
from zinorm.indicators import emnpc_arrays, mh_quotient_arrays, mnpc_arrays

#: The most outcomes one group may enumerate: the count is a product over
#: strata, and three strata of 200 papers would need about 5e10.
MAX_OUTCOMES = 10**6


def binomial(n, p):
    """P(k mentioned) for k = 0..n."""
    return np.array([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])


def stratum_outcomes(spec, group, i):
    """(a, c, probability) of each outcome of stratum i for `group`."""
    stratum = spec.strata[i]
    p = stratum.mention_probability
    background = stratum.world_size - sum(g.sizes[i] for g in spec.groups)
    rest = binomial(background, p)
    for other in spec.groups:
        if other is not group:
            rest = np.convolve(rest, binomial(other.sizes[i], group_probability(p, other.theta)))
    own = binomial(group.sizes[i], group_probability(p, group.theta))
    a, r = np.indices((len(own), len(rest))).reshape(2, -1)
    return a, a + r, own[a] * rest[r]


def outcomes(spec, group):
    """(a, c) shaped (outcomes, strata) and their probabilities, over every stratum."""
    per_stratum = [stratum_outcomes(spec, group, i) for i in range(len(spec.strata))]
    count = math.prod(len(p) for _, _, p in per_stratum)
    if count > MAX_OUTCOMES:
        raise ValueError(f"group {group.label!r} has {count} outcomes, above {MAX_OUTCOMES}")
    index = np.indices([len(p) for _, _, p in per_stratum]).reshape(len(per_stratum), -1)
    a = np.stack([a[k] for (a, _, _), k in zip(per_stratum, index)], axis=1)
    c = np.stack([c[k] for (_, c, _), k in zip(per_stratum, index)], axis=1)
    probability = np.prod([p[k] for (_, _, p), k in zip(per_stratum, index)], axis=0)
    held = probability > 0
    return a[held].astype(float), c[held].astype(float), probability[held]


def exact_coverage(spec, truths):
    """{label: {kind: (P(covers | interval defined), P(degenerate))}} per group with papers.

    `truths` maps each label and kind to the value an interval must cover,
    as `true_indicator_values` gives them.
    """
    n = np.array([s.world_size for s in spec.strata], dtype=float)
    present = np.array([sum(g.sizes[i] > 0 for g in spec.groups) for i in range(len(n))])
    result = {}
    for group in spec.groups:
        m = np.array(group.sizes, dtype=float)
        held = m > 0
        if not held.any():
            continue
        a, world_c, probability = outcomes(spec, group)
        a, c = a[:, held], world_c[:, held]
        m, n_held, present_held = m[held], n[held], present[held]
        fixed = (a == 0) | (c == 0)
        added = np.where(c == 0, 0.5 * np.maximum(present_held, 1), 0.0)
        a_c, m_c, c_c, n_c = a + 0.5 * fixed, m + fixed, c + added, n_held + 2 * added
        refused = ((a_c > c_c) | (m_c - a_c > n_c - c_c)).any(axis=-1)
        mnpc = mnpc_arrays(a_c, m_c, c_c, n_c)
        estimates = {
            "emnpc": (emnpc_arrays(a, m, world_c, n), False),
            "mnpc": (mnpc, refused),
            "mhq": (mh_quotient_arrays(a, m - a, c, n_held - c), False),
        }
        result[group.label] = {}
        for kind, (estimate, also_degenerate) in estimates.items():
            degenerate = estimate.degenerate | also_degenerate
            truth = truths[group.label][kind]
            covers = ~degenerate & (estimate.lower <= truth) & (truth <= estimate.upper)
            defined = probability[~degenerate].sum()
            result[group.label][kind] = (
                probability[covers].sum() / defined if defined else math.nan,
                probability[degenerate].sum(),
            )
    return result
