"""`coverage_experiment` against the exact coverage of small worlds."""

import math

import pytest

from zinorm import WorldSpec, coverage_experiment, true_indicator_values
from zinorm.synth import _VALIDITY_KINDS

from exact_coverage import MAX_OUTCOMES, exact_coverage


def spec(strata, groups, seed=2026):
    return WorldSpec.from_dict(
        {
            "seed": seed,
            "strata": [
                {"field_id": f"f{i}", "year": 2000, "world_size": size, "mention_probability": p}
                for i, (size, p) in enumerate(strata)
            ],
            "groups": [
                {"label": label, "sizes": sizes, "theta": theta}
                for label, sizes, theta in groups
            ],
        }
    )


SPECS = {
    # Two groups, so each group's world count convolves the other's draws.
    "two_strata": spec([(40, 0.1), (30, 0.2)], [("gA", 8, 2.0), ("gB", 6, 0.5)]),
    # MHq and EMNPC undefined in about three of four replications.
    "sparse": spec([(200, 0.03)], [("g", 20, 0.5)]),
    # Groups absent from a stratum, world cells corrected for one or two
    # groups, and corrected group cells above the world's, which the
    # report's mnpc refuses.
    "tiny_strata": spec(
        [(8, 0.2), (8, 0.2), (8, 0.2)], [("g", [3, 3, 0], 2.0), ("h", [0, 2, 4], 0.5)]
    ),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_coverage_experiment_agrees_with_exact_coverage(name):
    # Within 4 standard errors of the exact P(covers | defined) and
    # P(degenerate), each taken at the exact probability.
    world, reps = SPECS[name], 2000
    exact = exact_coverage(world, true_indicator_values(world, _VALIDITY_KINDS))
    out = coverage_experiment(world, reps)
    assert set(out["groups"]) == set(exact)
    for label, by_kind in exact.items():
        for kind, (covers, degenerate) in by_kind.items():
            row = out["groups"][label][kind]
            where = (label, kind, row, covers, degenerate)
            assert abs(row["degenerate"] / reps - degenerate) <= 4 * math.sqrt(
                degenerate * (1 - degenerate) / reps
            ), where
            assert abs(row["coverage"] - covers) <= 4 * math.sqrt(
                covers * (1 - covers) / row["used"]
            ), where


def test_exact_coverage_refuses_large_worlds():
    # Three strata of 200 papers would need about 5e10 outcomes.
    large = spec([(200, 0.1)] * 3, [("g", 20, 2.0)])
    with pytest.raises(ValueError, match=f"above {MAX_OUTCOMES}"):
        exact_coverage(large, true_indicator_values(large, _VALIDITY_KINDS))
