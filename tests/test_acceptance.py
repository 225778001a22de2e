"""Acceptance gate: one test per criterion, one printed line per criterion.

The printed PASS/FAIL lines go through pytest's terminal reporter (the
real stdout captured before fd redirection), so they survive pytest's
capture and show up in piped logs.
"""

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from zinorm import (
    CellCounts,
    CountProfile,
    FilterConfig,
    GroupSpec,
    IndicatorKind,
    ReportConfig,
    StratumKey,
    StratumSpec,
    WorldSpec,
    apply_filters,
    build_profiles,
    convergent_validity_run,
    coverage_experiment,
    emnpc,
    generate_synthetic,
    mhq,
    mnpc,
    parse_membership,
    parse_publications,
    run_report,
)
from zinorm._kernels import mh_accumulate

from conftest import (
    COVERAGE_SPEC,
    MEMBERSHIP_CSV,
    PUBLICATIONS_CSV,
    VALIDITY_SPEC,
    cells,
    source_env,
)


_REPORTER = None


@pytest.fixture(scope="module", autouse=True)
def _grab_reporter(request):
    global _REPORTER
    _REPORTER = request.config.pluginmanager.get_plugin("terminalreporter")


def _emit(text):
    if _REPORTER is not None:
        _REPORTER.ensure_newline()
        _REPORTER.write_line(text)
    else:
        print(text, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        _emit(f"ACCEPTANCE criterion {number} ({title}): FAIL")
        raise
    _emit(f"ACCEPTANCE criterion {number} ({title}): PASS")


def fixture_config(kinds):
    return ReportConfig(
        publications=PUBLICATIONS_CSV,
        membership=MEMBERSHIP_CSV,
        indicators=kinds,
    )


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Compile kernels and touch the whole pipeline before any timing."""
    mh_accumulate([1.0], [2.0], [3.0], [4.0])
    run_report(fixture_config(tuple(IndicatorKind)))


@pytest.fixture(scope="module")
def fixture_profiles():
    with open(PUBLICATIONS_CSV) as fh:
        records = parse_publications(fh)
    with open(MEMBERSHIP_CSV) as fh:
        pairs = parse_membership(fh)
    world, groups = build_profiles(records, pairs)
    filtered = apply_filters(world, groups, FilterConfig())
    return filtered.world, filtered.groups


def test_criterion_1_emnpc_worked_example(fixture_profiles):
    with criterion(1, "EMNPC worked example, ±0.005, <1s"):
        world, groups = fixture_profiles
        start = time.perf_counter()
        result_a = emnpc(groups["setA"], world)
        result_b = emnpc(groups["setB"], world)
        result_w = emnpc(world, world)
        elapsed = time.perf_counter() - start
        for result, expected in (
            (result_a, (0.94, 0.71, 1.25)),
            (result_b, (1.03, 0.77, 1.37)),
        ):
            assert result.value == pytest.approx(expected[0], abs=0.005)
            assert result.ci_lower == pytest.approx(expected[1], abs=0.005)
            assert result.ci_upper == pytest.approx(expected[2], abs=0.005)
        assert result_w.value == pytest.approx(1.00, abs=0.005)
        assert elapsed < 1.0


def test_criterion_2_mnpc_worked_example(fixture_profiles):
    with criterion(2, "MNPC with continuity correction, ±0.01/±0.02, <1s"):
        world, groups = fixture_profiles
        start = time.perf_counter()
        doc = run_report(fixture_config((IndicatorKind.MNPC,)))
        elapsed = time.perf_counter() - start
        expected = {
            "setA": (0.94, 0.56, 4.66),
            "setB": (1.07, 0.67, 5.51),
            "world": (1.00, 0.65, 3.23),
        }
        for label, (value, lower, upper) in expected.items():
            row = doc["groups"][label]["mnpc"]
            assert row["value"] == pytest.approx(value, abs=0.01)
            assert row["ci_lower"] == pytest.approx(lower, abs=0.02)
            assert row["ci_upper"] == pytest.approx(upper, abs=0.02)
        assert elapsed < 1.0


def test_criterion_3_mhq_worked_example(fixture_profiles):
    with criterion(3, "MHq worked example with hand accumulation, ±0.005/±0.02"):
        world, groups = fixture_profiles
        expected = {
            "setA": (0.81, 0.46, 1.44),
            "setB": (1.30, 0.66, 2.53),
            "world": (1.00, 0.61, 1.64),
        }
        for label, (value, lower, upper) in expected.items():
            profile = world if label == "world" else groups[label]
            result = mhq(profile, world)
            assert result.value == pytest.approx(value, abs=0.005)
            assert result.ci_lower == pytest.approx(lower, abs=0.02)
            assert result.ci_upper == pytest.approx(upper, abs=0.02)
        assert mhq(world, world).value == pytest.approx(1.0, abs=1e-12)

        # independent re-derivation of the pooled quotient terms
        for label, (r_expected, s_expected) in (
            ("setA", (10.34, 12.76)),
            ("setB", (9.949, 7.675)),
        ):
            profile = groups[label]
            world_cells = cells(world)
            a, b = profile.counts.T
            c, d = np.array([world_cells[k] for k in profile.strata()]).T
            r, s, *_ = mh_accumulate(a, b, c, d)
            tolerance = 0.005 if label == "setA" else 0.0005
            assert r == pytest.approx(r_expected, abs=tolerance)
            assert s == pytest.approx(s_expected, abs=tolerance)
            assert r / s == pytest.approx(
                {"setA": 0.810, "setB": 1.296}[label], abs=0.0005
            )


def _random_pair(rng, n_strata=None, min_mentioned=1):
    n_strata = n_strata or int(rng.integers(1, 6))
    group_cells = {}
    world_cells = {}
    for i in range(n_strata):
        a = int(rng.integers(min_mentioned, 16))
        b = int(rng.integers(1, 16))
        c = a + int(rng.integers(0, 16))
        d = b + int(rng.integers(0, 16))
        key = StratumKey(f"f{i:02d}", 2000)
        group_cells[key] = CellCounts(a, b)
        world_cells[key] = CellCounts(c, d)
    return CountProfile("g", group_cells), CountProfile("world", world_cells)


def test_criterion_4_property_suite():
    with criterion(4, "indicator invariants and MNPC dual formulation"):
        rng = np.random.default_rng(20260825)

        # world identity, CI ordering, log symmetry
        for _ in range(200):
            group, world = _random_pair(rng)
            assert mhq(world, world).value == pytest.approx(1.0, abs=1e-12)
            assert emnpc(world, world).value == pytest.approx(1.0, abs=1e-12)
            assert mnpc(world, world).value == pytest.approx(1.0, abs=1e-12)
            for func in (mhq, emnpc, mnpc):
                result = func(group, world)
                assert (
                    0 < result.ci_lower <= result.value <= result.ci_upper
                )
            for func in (mhq, emnpc):
                result = func(group, world)
                if result.ci_lower < result.value:
                    assert result.ci_upper / result.value == pytest.approx(
                        result.value / result.ci_lower, rel=1e-9
                    )

        # single-stratum MHq is the plain odds ratio
        for _ in range(200):
            a, b = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            c, d = a + int(rng.integers(0, 30)), b + int(rng.integers(0, 30))
            group = CountProfile("g", {StratumKey("f", 2000): CellCounts(a, b)})
            world = CountProfile(
                "world", {StratumKey("f", 2000): CellCounts(c, d)}
            )
            assert mhq(group, world).value == pytest.approx(
                (a * d) / (b * c), rel=1e-12
            )

        # stratum replication leaves values alone
        for _ in range(100):
            group, world = _random_pair(rng)
            copies = int(rng.integers(2, 5))
            group_rep = CountProfile(
                "g",
                {
                    StratumKey(k.field_id, k.year + i): cell
                    for i in range(copies)
                    for k, cell in cells(group).items()
                },
            )
            world_rep = CountProfile(
                "world",
                {
                    StratumKey(k.field_id, k.year + i): cell
                    for i in range(copies)
                    for k, cell in cells(world).items()
                },
            )
            for func in (mhq, emnpc, mnpc):
                assert func(group_rep, world_rep).value == pytest.approx(
                    func(group, world).value, rel=1e-12
                )

        # uniform within-stratum scaling leaves values alone
        for _ in range(100):
            group, world = _random_pair(rng)
            factor = float(rng.choice([0.5, 2.0, 3.0, 10.0]))
            scale = lambda p: CountProfile(
                p.label,
                {
                    k: CellCounts(
                        cell.mentioned * factor, cell.not_mentioned * factor
                    )
                    for k, cell in cells(p).items()
                },
            )
            for func in (mhq, emnpc, mnpc):
                assert func(scale(group), scale(world)).value == pytest.approx(
                    func(group, world).value, rel=1e-9
                )

        # MNPC dual formulation on 1000 random integer profiles
        for _ in range(1000):
            group, world = _random_pair(rng)
            total_group = group.total_papers
            world_cells = cells(world)
            per_paper_sum = sum(
                cell.mentioned
                / (world_cells[k].mentioned / sum(world_cells[k]))
                for k, cell in cells(group).items()
            )
            assert mnpc(group, world).value == pytest.approx(
                per_paper_sum / total_group, rel=1e-12
            )


def test_criterion_5_coverage_calibration():
    with criterion(5, "MHq CI coverage in [0.93, 0.97] at 2000 reps, <60s"):
        spec = WorldSpec.from_json(COVERAGE_SPEC)
        thetas = sorted(g.theta for g in spec.groups)
        assert thetas == [0.5, 1.0, 2.0]
        assert len(spec.strata) == 10
        assert all(s.world_size == 500 for s in spec.strata)
        start = time.perf_counter()
        out = coverage_experiment(spec, 2000)
        elapsed = time.perf_counter() - start
        for label, cells in out["groups"].items():
            coverage = cells["mhq"]["coverage"]
            assert 0.93 <= coverage <= 0.97, (label, coverage)
        assert elapsed < 60.0


def test_criterion_6_byte_identical_reports(tmp_path):
    with criterion(6, "repeat CLI runs are byte-identical"):
        for fmt in ("json", "table"):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "zinorm", "compute",
                        "--publications", str(PUBLICATIONS_CSV),
                        "--membership", str(MEMBERSHIP_CSV),
                        "--indicators", "emnpc,mnpc,mhq,mhq_prime",
                        "--compare", "setA:setB",
                        "--format", fmt,
                    ],
                    capture_output=True,
                    env=source_env(),
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            assert outputs[0]


def test_criterion_7_quality_group_ordering():
    with criterion(
        7, "synthetic quality groups: MHq ordered with gap verdicts"
    ):
        spec = WorldSpec.from_json(VALIDITY_SPEC)
        labels = [g.label for g in spec.groups]
        assert [g.theta for g in spec.groups] == [1.0, 8.0, 15.0]
        out = convergent_validity_run(spec)
        assert out["years"]
        for year, payload in out["years"].items():
            values = [
                payload["groups"][label]["mhq"]["value"] for label in labels
            ]
            assert values[0] < values[1] < values[2], (year, values)
            mhq_verdicts = [
                c for c in payload["comparisons"] if c["indicator"] == "mhq"
            ]
            assert len(mhq_verdicts) == len(labels) - 1
            for verdict in mhq_verdicts:
                assert verdict["category"] == "gap", (year, verdict)
                assert verdict["p_label"] != "not significant"

        # consistency check at a mid-scale odds multiplier
        strata = tuple(
            StratumSpec(StratumKey(f"f{i:02d}", 2000 + i % 5), 1000, 0.12)
            for i in range(50)
        )
        check_spec = WorldSpec(
            seed=2,
            strata=strata,
            groups=(GroupSpec("g", (20,) * 50, 3.0),),
        )
        records, pairs = generate_synthetic(check_spec)
        world, groups = build_profiles(records, pairs)
        filtered = apply_filters(world, groups, FilterConfig())
        result = mhq(filtered.groups["g"], filtered.world)
        assert 2.7 <= result.value <= 3.3
