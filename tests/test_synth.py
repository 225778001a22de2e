import json
import logging
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zinorm import (
    GroupSpec,
    IndicatorKind,
    InputDataError,
    StratumKey,
    StratumSpec,
    WorldSpec,
    convergent_validity_run,
    coverage_experiment,
    expected_profiles,
    generate_synthetic,
    group_probability,
    parse_membership,
    parse_publications,
    true_indicator_values,
    write_synthetic,
)
from zinorm.errors import DegenerateComputationError
from zinorm.indicators import emnpc, mhq, mnpc
from zinorm.profiles import (
    WORLD_LABEL,
    CellCounts,
    CountProfile,
    build_profiles,
    continuity_correct,
)
from zinorm.synth import (
    _BLOCK,
    _block_counts,
    _VALIDITY_KINDS,
    _replication_draws,
    _replication_estimates,
)

from conftest import COVERAGE_SPEC, VALIDITY_SPEC, cells

README = Path(__file__).parent.parent / "README.md"


def make_spec(seed=7, theta=2.0, p=0.2, world=50, group=10, n_strata=3):
    strata = tuple(
        StratumSpec(StratumKey(f"f{i}", 2000 + i), world, p)
        for i in range(n_strata)
    )
    groups = (GroupSpec("g", (group,) * n_strata, theta),)
    return WorldSpec(seed=seed, strata=strata, groups=groups)


class TestGroupProbability:
    def test_theta_one_is_identity(self):
        assert group_probability(0.37, 1.0) == 0.37

    def test_endpoints_fixed(self):
        assert group_probability(0.0, 5.0) == 0.0
        assert group_probability(1.0, 5.0) == 1.0

    def test_odds_scaling_value(self):
        # odds 1/9 doubled -> 2/9 -> probability 2/11
        assert group_probability(0.1, 2.0) == pytest.approx(2.0 / 11.0)

    def test_monotone_in_theta(self):
        probs = [group_probability(0.3, t) for t in (0.5, 1.0, 2.0, 8.0)]
        assert probs == sorted(probs)
        assert all(0 < q < 1 for q in probs)

    def test_bad_inputs(self):
        with pytest.raises(InputDataError):
            group_probability(1.2, 1.0)
        with pytest.raises(InputDataError):
            group_probability(0.5, 0.0)
        with pytest.raises(InputDataError):
            group_probability(0.5, float("inf"))


class TestWorldSpec:
    def test_reserved_label_rejected(self):
        with pytest.raises(InputDataError, match="reserved"):
            GroupSpec("world", (1,), 1.0)
        with pytest.raises(InputDataError, match="reserved"):
            GroupSpec("bg", (1,), 1.0)

    def test_colon_in_label_rejected(self):
        with pytest.raises(InputDataError):
            GroupSpec("a:b", (1,), 1.0)

    def test_sizes_length_mismatch(self):
        strata = (StratumSpec(StratumKey("f", 2000), 10, 0.1),)
        with pytest.raises(InputDataError, match="sizes"):
            WorldSpec(seed=1, strata=strata, groups=(GroupSpec("g", (1, 2), 1.0),))

    def test_overallocated_stratum(self):
        strata = (StratumSpec(StratumKey("f", 2000), 10, 0.1),)
        with pytest.raises(InputDataError, match="exceeding"):
            WorldSpec(
                seed=1,
                strata=strata,
                groups=(GroupSpec("a", (6,), 1.0), GroupSpec("b", (5,), 1.0)),
            )

    def test_duplicate_strata(self):
        strata = (
            StratumSpec(StratumKey("f", 2000), 10, 0.1),
            StratumSpec(StratumKey("f", 2000), 20, 0.2),
        )
        with pytest.raises(InputDataError, match="duplicate"):
            WorldSpec(seed=1, strata=strata, groups=())

    def test_bad_seed(self):
        strata = (StratumSpec(StratumKey("f", 2000), 10, 0.1),)
        with pytest.raises(InputDataError, match="seed"):
            WorldSpec(seed=-1, strata=strata, groups=())
        with pytest.raises(InputDataError, match="seed"):
            WorldSpec(seed=2**64, strata=strata, groups=())
        with pytest.raises(InputDataError, match="seed"):
            WorldSpec(seed=True, strata=strata, groups=())

    def test_from_dict_scalar_sizes_broadcast(self):
        spec = WorldSpec.from_dict(
            {
                "seed": 3,
                "strata": [
                    {"field_id": "f", "year": 2000, "world_size": 10,
                     "mention_probability": 0.1},
                    {"field_id": "f", "year": 2001, "world_size": 10,
                     "mention_probability": 0.1},
                ],
                "groups": [{"label": "g", "sizes": 4, "theta": 2.0}],
            }
        )
        assert spec.groups[0].sizes == (4, 4)
        assert spec.sizes[-1].tolist() == [6, 6]

    def test_sizes_and_probabilities_rows(self):
        # A row per group in spec order, then the background at the world's
        # probability; both arrays are read-only, as the spec is immutable.
        strata = (
            StratumSpec(StratumKey("f1", 2001), 10, 0.2),
            StratumSpec(StratumKey("f0", 2000), 7, 1.0),
        )
        groups = (GroupSpec("b", (3, 0), 2.0), GroupSpec("a", (1, 7), 0.5))
        spec = WorldSpec(seed=1, strata=strata, groups=groups)
        assert spec.sizes.dtype == np.int64
        assert spec.sizes.tolist() == [[3, 0], [1, 7], [6, 0]]
        assert spec.probabilities.tolist() == [
            [group_probability(0.2, 2.0), 1.0],
            [group_probability(0.2, 0.5), 1.0],
            [0.2, 1.0],
        ]
        for name in ("sizes", "probabilities"):
            array = getattr(spec, name)
            assert getattr(spec, name) is array  # computed once
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        groupless = WorldSpec(seed=1, strata=strata, groups=())
        assert groupless.sizes.tolist() == [[10, 7]]
        assert groupless.probabilities.tolist() == [[0.2, 1.0]]

    def test_from_dict_requires_string_ids_and_int64_sizes(self):
        stratum = {"field_id": "f", "year": 2000, "world_size": 10, "mention_probability": 0.1}
        group = {"label": "g", "sizes": 4, "theta": 2.0}
        for doc, message in [
            ({"strata": [{**stratum, "field_id": None}], "groups": []},
             "spec stratum 0: field_id must be a string, got None"),
            ({"strata": [stratum], "groups": [{**group, "label": 7}]},
             "spec group 0: label must be a string, got 7"),
            ({"strata": [{**stratum, "world_size": 10**20}], "groups": [group]},
             "stratum f/2000: world_size must be less than 2^63"),
        ]:
            with pytest.raises(InputDataError) as caught:
                WorldSpec.from_dict({"seed": 1, **doc})
            assert str(caught.value) == message
        largest = WorldSpec.from_dict(
            {"seed": 1, "strata": [{**stratum, "world_size": 2**63 - 1}], "groups": [group]}
        )
        assert largest.sizes.tolist() == [[4], [2**63 - 5]]

    def test_from_dict_missing_key(self):
        with pytest.raises(InputDataError, match="missing key"):
            WorldSpec.from_dict({"strata": []})

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "strata": [
                        {"field_id": "f", "year": 2000, "world_size": 10,
                         "mention_probability": 0.25}
                    ],
                    "groups": [{"label": "g", "sizes": [2], "theta": 1.0}],
                }
            )
        )
        spec = WorldSpec.from_json(path)
        assert spec.seed == 11
        assert spec.probabilities[0].tolist() == [0.25]

    def test_from_json_bad_file(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            WorldSpec.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputDataError, match="not valid JSON"):
            WorldSpec.from_json(bad)


def drawn(spec):
    """The rows and membership pairs that `generate_synthetic` draws."""
    table, pairs = generate_synthetic(spec)
    return list(table), pairs


class TestGenerateSynthetic:
    def test_deterministic_for_same_seed(self):
        spec = make_spec()
        assert drawn(spec) == drawn(spec)

    def test_seed_override_changes_draws(self):
        spec = make_spec()
        base = drawn(spec)
        other = drawn(replace(spec, seed=spec.seed + 1))
        assert base != other

    def test_counts_and_ids(self):
        spec = make_spec(world=20, group=5, n_strata=2)
        records, pairs = generate_synthetic(spec)
        assert len(records) == 40
        assert len(pairs) == 10
        assert {g for _, g in pairs} == {"g"}
        ids = [r.paper_id for r in records]
        assert len(set(ids)) == len(ids)
        assert "g:f0:2000:00000" in ids
        assert "bg:f1:2001:00014" in ids

    def test_mention_counts_exercise_dichotomization(self):
        records, _ = generate_synthetic(make_spec(world=400, p=0.5, seed=99))
        mentioned = [r.mentions for r in records if r.mentions > 0]
        assert mentioned, "expected some mentioned papers"
        assert min(mentioned) >= 1
        assert max(mentioned) > 1

    def test_year_outside_range_rejected(self):
        # The spec checks the year rule of the records, naming the stratum,
        # so no unreadable CSV is drawn.
        with pytest.raises(
            InputDataError, match=r"^stratum f0/1850: year 1850 outside \[1900, 2100\]$"
        ):
            StratumSpec(StratumKey("f0", 1850), 10, 0.2)

    def test_roundtrip_through_csv(self, tmp_path):
        spec = make_spec(seed=123)
        records, pairs = generate_synthetic(spec)
        pub_path, mem_path = write_synthetic(records, pairs, tmp_path)
        with open(pub_path) as fh:
            parsed_records = parse_publications(fh)
        with open(mem_path) as fh:
            parsed_pairs = parse_membership(fh)
        assert list(parsed_records) == list(records)
        assert parsed_pairs == pairs
        world, groups = build_profiles(parsed_records, parsed_pairs)
        assert world.total_papers == 150
        assert groups["g"].total_papers == 30

    def test_written_files_byte_identical_across_runs(self, tmp_path):
        spec = make_spec(seed=321)
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_synthetic(*generate_synthetic(spec), first)
        write_synthetic(*generate_synthetic(spec), second)
        assert (first / "publications.csv").read_bytes() == (
            second / "publications.csv"
        ).read_bytes()
        assert (first / "membership.csv").read_bytes() == (
            second / "membership.csv"
        ).read_bytes()


class TestExpectedProfiles:
    def test_cells_match_spec_arithmetic(self):
        spec = make_spec(theta=2.0, p=0.2, world=50, group=10)
        world, groups = expected_profiles(spec)
        q = group_probability(0.2, 2.0)
        key = StratumKey("f0", 2000)
        cell = cells(groups["g"])[key]
        assert cell.mentioned == pytest.approx(10 * q)
        world_cell = cells(world)[key]
        assert world_cell.mentioned == pytest.approx(40 * 0.2 + 10 * q)
        assert world_cell.mentioned + world_cell.not_mentioned == pytest.approx(50.0)

    def test_world_dominates_in_float(self):
        # stress the term-by-term accumulation with awkward probabilities
        strata = tuple(
            StratumSpec(StratumKey(f"f{i}", 2000), 7, 1.0 / 3.0)
            for i in range(5)
        )
        groups = tuple(
            GroupSpec(f"g{j}", (1,) * 5, 1.0 + j / 7.0) for j in range(7)
        )
        spec = WorldSpec(seed=1, strata=strata, groups=groups)
        world, group_profiles = expected_profiles(spec)
        world_cells = cells(world)
        for profile in group_profiles.values():
            for key, cell in cells(profile).items():
                assert world_cells[key].mentioned >= cell.mentioned
                assert world_cells[key].not_mentioned >= cell.not_mentioned

    def test_unsorted_strata_and_zero_sizes(self):
        keys = [
            StratumKey("f2", 2001),
            StratumKey("f0", 2003),
            StratumKey("f1", 2000),
            StratumKey("f0", 2001),
        ]
        probabilities = [0.3, 1.0 / 3.0, 0.0, 1.0]
        strata = tuple(
            StratumSpec(key, 11 + i, p)
            for i, (key, p) in enumerate(zip(keys, probabilities))
        )
        groups = (
            GroupSpec("g1", (2, 0, 3, 1), 2.0),
            GroupSpec("g0", (1, 4, 0, 2), 0.7),
        )
        spec = WorldSpec(seed=1, strata=strata, groups=groups)
        world, group_profiles = expected_profiles(spec)
        assert world.strata() == tuple(sorted(keys))
        assert list(group_profiles) == ["g1", "g0"]
        for group in groups:
            held = sorted(key for key, size in zip(keys, group.sizes) if size)
            assert group_profiles[group.label].strata() == tuple(held)
        background = spec.sizes[-1].tolist()
        for i, (key, p) in enumerate(zip(keys, probabilities)):
            mentioned = background[i] * p
            not_mentioned = background[i] * (1.0 - p)
            for group in groups:
                if group.sizes[i]:
                    cell = cells(group_profiles[group.label])[key]
                    mentioned += cell.mentioned
                    not_mentioned += cell.not_mentioned
            assert cells(world)[key] == (mentioned, not_mentioned)

    def test_truths_unity_when_theta_one(self):
        spec = make_spec(theta=1.0)
        truths = true_indicator_values(spec)
        for kind in IndicatorKind:
            assert truths["g"][str(kind)] == pytest.approx(1.0, abs=1e-12)

    def test_truths_ordered_by_theta(self):
        strata = tuple(
            StratumSpec(StratumKey(f"f{i}", 2001), 500, 0.1) for i in range(4)
        )
        groups = tuple(
            GroupSpec(label, (30,) * 4, theta)
            for label, theta in (("lo", 0.5), ("mid", 1.0), ("hi", 4.0))
        )
        spec = WorldSpec(seed=9, strata=strata, groups=groups)
        truths = true_indicator_values(spec, (IndicatorKind.MHQ,))
        assert truths["lo"]["mhq"] < truths["mid"]["mhq"] < truths["hi"]["mhq"]


def test_readme_theta_table_matches_truths():
    # Each number of the README's table, recomputed from the analytic
    # truths to its printed decimals, with every group resized to the
    # column's share of the fixture's strata of 3000 papers.
    lines = README.read_text(encoding="utf-8").splitlines()
    first = lines.index("| groups' share of each stratum | 1% | 10% | 30% | 50% |")
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines[first + 2 : first + 7]
    ]
    raw = json.loads(VALIDITY_SPEC.read_text())
    for column, share in enumerate((1, 10, 30, 50), 1):
        doc = {**raw, "groups": [{**g, "sizes": share * 10} for g in raw["groups"]]}
        truths = true_indicator_values(WorldSpec.from_dict(doc))
        ratios = {
            kind: [truths[q][kind] / truths["Q0"][kind] for q in ("Q1", "Q2")]
            for kind in ("mhq", "mhq_prime", "emnpc", "mnpc")
        }
        computed = {
            "MHq of Q0": [truths["Q0"]["mhq"]],
            "MHq ratios Q1/Q0, Q2/Q0": ratios["mhq"],
            "MHq' ratios Q1/Q0, Q2/Q0": ratios["mhq_prime"],
            "EMNPC ratios Q1/Q0, Q2/Q0": ratios["emnpc"],
            "MNPC ratios Q1/Q0, Q2/Q0": ratios["mnpc"],
        }
        assert [row[0] for row in rows] == list(computed)
        for row in rows:
            printed = row[column].split(", ")
            decimals = [len(number.split(".")[1]) for number in printed]
            values = computed[row[0]]
            assert printed == [f"{v:.{d}f}" for v, d in zip(values, decimals)], (row[0], share)


class TestCoverageExperiment:
    def test_rejects_too_few_replications(self):
        with pytest.raises(InputDataError, match="100"):
            coverage_experiment(make_spec(), 99)

    def test_rejects_groupless_spec(self):
        strata = (StratumSpec(StratumKey("f", 2000), 10, 0.1),)
        spec = WorldSpec(seed=1, strata=strata, groups=())
        with pytest.raises(InputDataError, match="group"):
            coverage_experiment(spec, 200)

    def test_structure_and_degenerate_accounting(self):
        # tiny strata make zero-mention draws likely, exercising the
        # degenerate-exclusion path
        spec = make_spec(seed=5150, world=5, group=3, p=0.2, theta=2.0)
        out = coverage_experiment(spec, 200)
        assert out["nominal"] == 0.95
        assert out["replications"] == 200
        assert out["seed"] == 5150
        cells = out["groups"]["g"]
        assert set(cells) == {"emnpc", "mnpc", "mhq"}
        for payload in cells.values():
            assert set(payload) == {
                "truth", "coverage", "covered", "used", "degenerate",
            }
            assert payload["used"] + payload["degenerate"] == 200
            assert payload["covered"] <= payload["used"]
        assert cells["mhq"]["degenerate"] > 0

    def test_deterministic(self):
        spec = make_spec(seed=77, world=200, group=20, p=0.15)
        assert coverage_experiment(spec, 150) == coverage_experiment(spec, 150)

    def test_healthy_spec_covers_near_nominal(self):
        strata = tuple(
            StratumSpec(StratumKey(f"f{i}", 2002), 400, 0.1) for i in range(6)
        )
        spec = WorldSpec(
            seed=424242,
            strata=strata,
            groups=(GroupSpec("g", (12,) * 6, 2.0),),
        )
        out = coverage_experiment(spec, 400)
        mhq = out["groups"]["g"]["mhq"]
        assert mhq["degenerate"] == 0
        assert 0.90 <= mhq["coverage"] <= 0.99

    def test_blocks_and_threads_do_not_change_the_result(self, monkeypatch, caplog):
        # One replication more than a block leaves a one-replication last block.
        spec = WorldSpec.from_json(COVERAGE_SPEC)
        reps = _BLOCK + 1
        truths = true_indicator_values(spec, _VALIDITY_KINDS)
        expected = {
            key: tuple(counts)
            for key, counts in _block_counts(spec, truths, range(reps)).items()
        }
        results = []
        for cpus in (os.cpu_count(), 1):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            with caplog.at_level(logging.INFO, logger="zinorm.synth"):
                results.append(coverage_experiment(spec, reps))
            threads = min(cpus or 1, 2)
            assert caplog.messages[-1].endswith(
                f"{reps} replications, 2 blocks, {threads} threads"
            )
        threaded, single = results
        assert threaded == single
        got = {
            (label, kind): (row["covered"], row["used"], row["degenerate"])
            for label, cells in threaded["groups"].items()
            for kind, row in cells.items()
        }
        assert got == expected

    def test_mnpc_over_covers_with_wide_intervals(self):
        # MNPC's interval adds its arms linearly: on the fixture spec it
        # always covers, at more than twice MHq's mean log-width.
        spec, reps = WorldSpec.from_json(COVERAGE_SPEC), 2000
        out = coverage_experiment(spec, reps)
        assert set(out["groups"]) == {"gLow", "gMid", "gHigh"}
        for cells in out["groups"].values():
            assert cells["mnpc"]["coverage"] >= 0.995
        for label, estimates in _replication_estimates(spec, range(reps)):
            width = {}
            for kind in (IndicatorKind.MNPC, IndicatorKind.MHQ):
                estimate = estimates[kind]
                usable = ~estimate.degenerate
                width[kind] = np.log(
                    estimate.upper[usable] / estimate.lower[usable]
                ).mean()
            assert width[IndicatorKind.MNPC] > 2 * width[IndicatorKind.MHQ], label


def _replication_profiles(spec, group_draws, world_draws, i):
    """Replication i's world and group profiles, as build_profiles would give."""
    keys = [s.key for s in spec.strata]
    world = CountProfile(
        WORLD_LABEL,
        {
            key: CellCounts(c, s.world_size - c)
            for key, s, c in zip(keys, spec.strata, world_draws[i])
        },
    )
    groups = {
        group.label: CountProfile(
            group.label,
            {
                key: CellCounts(a, size - a)
                for key, size, a in zip(keys, group.sizes, group_draws[g, i])
                if size > 0
            },
        )
        for g, group in enumerate(spec.groups)
    }
    return world, groups


def _scalar_or_none(func, group, world):
    try:
        return func(group, world)
    except DegenerateComputationError:
        return None
    except InputDataError as exc:
        # A corrected group cell above its world cell: the report refuses it.
        if "counts exceed the world counts" not in str(exc):
            raise
        return None


@pytest.mark.parametrize(
    "spec, any_degenerate, mnpc_used",
    [
        (WorldSpec.from_json(COVERAGE_SPEC), False, None),
        # Small, sparsely mentioned strata: degenerate replications, world
        # cells corrected for one or two present groups, and a group absent
        # from one stratum.
        (
            WorldSpec(
                seed=5150,
                strata=tuple(
                    StratumSpec(StratumKey(f"f{i}", 2000 + i), 20, 0.05)
                    for i in range(3)
                ),
                groups=(
                    GroupSpec("g", (3, 3, 3), 2.0),
                    GroupSpec("h", (0, 4, 2), 0.5),
                ),
            ),
            True,
            None,
        ),
        # A group of 3 in strata of 5: where it holds all the unmentioned
        # papers and none of the mentioned, its corrected cell exceeds the
        # world's, which the report's mnpc refuses.
        (
            WorldSpec(
                seed=5150,
                strata=tuple(
                    StratumSpec(StratumKey(f"f{i}", 2000 + i), 5, 0.2)
                    for i in range(3)
                ),
                groups=(GroupSpec("g", (3, 3, 3), 2.0),),
            ),
            True,
            {"g": (145, 5)},
        ),
    ],
    ids=["coverage_spec", "sparse_strata", "corrected_group_exceeds_world"],
)
def test_coverage_rows_match_scalar_indicators(spec, any_degenerate, mnpc_used):
    # Each replication's coverage estimate equals the report function on
    # that replication's profiles: EMNPC and MHq raw, MNPC corrected; a
    # replication the report refuses is degenerate in coverage.
    reps = 150
    group_draws, world_draws = _replication_draws(spec, range(reps))
    estimates = dict(_replication_estimates(spec, range(reps)))
    assert set(estimates) == {g.label for g in spec.groups}
    degenerate_seen = 0
    for i in range(reps):
        world, groups = _replication_profiles(spec, group_draws, world_draws, i)
        corrected = continuity_correct(world, groups)
        for label, group in groups.items():
            expected = {
                IndicatorKind.EMNPC: _scalar_or_none(emnpc, group, world),
                IndicatorKind.MHQ: _scalar_or_none(mhq, group, world),
                IndicatorKind.MNPC: _scalar_or_none(
                    mnpc, corrected.groups[label], corrected.world
                ),
            }
            for kind, result in expected.items():
                estimate = estimates[label][kind]
                where = (i, label, kind)
                assert bool(estimate.degenerate[i]) == (result is None), where
                if result is None:
                    degenerate_seen += 1
                    continue
                got = (estimate.value[i], estimate.lower[i], estimate.upper[i])
                want = (result.value, result.ci_lower, result.ci_upper)
                assert got == pytest.approx(want, rel=1e-12, abs=0), where
    assert (degenerate_seen > 0) == any_degenerate

    out = coverage_experiment(spec, reps)
    for label, by_kind in estimates.items():
        for kind, estimate in by_kind.items():
            row = out["groups"][label][str(kind)]
            assert row["degenerate"] == int(estimate.degenerate.sum())
    for label, used_and_degenerate in (mnpc_used or {}).items():
        row = out["groups"][label]["mnpc"]
        assert (row["used"], row["degenerate"]) == used_and_degenerate


class TestConvergentValidity:
    def test_rejects_groupless_spec(self):
        strata = (StratumSpec(StratumKey("f", 2000), 10, 0.1),)
        spec = WorldSpec(seed=1, strata=strata, groups=())
        with pytest.raises(InputDataError, match="group"):
            convergent_validity_run(spec)

    def test_flat_theta_groups_are_indistinguishable(self):
        strata = tuple(
            StratumSpec(StratumKey(field, year), 400, 0.1)
            for year in (2001, 2002)
            for field in ("bio", "chem")
        )
        groups = tuple(
            GroupSpec(label, (100,) * 4, 1.0) for label in ("qa", "qb", "qc")
        )
        spec = WorldSpec(seed=1234, strata=strata, groups=groups)
        out = convergent_validity_run(spec)
        assert sorted(out["years"]) == ["2001", "2002"]
        assert out["audit"]["groups"] == ["qa", "qb", "qc"]
        for payload in out["years"].values():
            for row in payload["groups"].values():
                assert 0.5 < row["mhq"]["value"] < 2.0
            mhq_cmp = [
                c for c in payload["comparisons"] if c["indicator"] == "mhq"
            ]
            assert len(mhq_cmp) == 2
            for comparison in mhq_cmp:
                assert comparison["category"] == "substantial"
                assert comparison["p_label"] == "not significant"

    def test_group_equal_to_world_scores_unity(self):
        strata = tuple(
            StratumSpec(StratumKey("f", year), 60, 0.3) for year in (2000, 2001)
        )
        spec = WorldSpec(
            seed=5,
            strata=strata,
            groups=(GroupSpec("all", (60, 60), 1.0),),
        )
        out = convergent_validity_run(spec)
        for payload in out["years"].values():
            row = payload["groups"]["all"]
            for kind in ("emnpc", "mnpc", "mhq"):
                assert row[kind]["value"] == pytest.approx(1.0, abs=1e-12)
            assert payload["comparisons"] == []

    def test_payload_shape_matches_report(self):
        spec = make_spec(seed=8, world=300, group=40, p=0.2, theta=3.0)
        out = convergent_validity_run(spec)
        year = out["years"]["2000"]
        row = year["groups"]["g"]["mhq"]
        assert {"value", "ci_lower", "ci_upper", "strata_used"} <= set(row)
        assert row["ci_lower"] < row["value"] < row["ci_upper"]


def test_replication_seeding_is_stable_under_rep_count():
    # replication i must not depend on how many replications run, nor on
    # where the block that holds it starts
    spec = make_spec(seed=2024, world=100, group=10, p=0.1)
    few_groups, few_world = _replication_draws(spec, range(50))
    many_groups, many_world = _replication_draws(spec, range(120))
    np.testing.assert_array_equal(few_groups, many_groups[:, :50, :])
    np.testing.assert_array_equal(few_world, many_world[:50, :])
    block_groups, block_world = _replication_draws(spec, range(37, 120))
    np.testing.assert_array_equal(block_groups, many_groups[:, 37:, :])
    np.testing.assert_array_equal(block_world, many_world[37:, :])
