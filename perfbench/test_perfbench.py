"""Self-tests of the benchmark: smoke run, oracle, tracer, missing sources.

    python3 -m pytest perfbench -q

They need neither numba nor statsmodels. They live here, not under
``tests/``, so the repository's own test run does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import zinorm  # noqa: E402

import oracle  # noqa: E402
import worlds  # noqa: E402
from run import WORKLOADS, checked  # noqa: E402
from tracing import Tracer, install, metric_names, self_times  # noqa: E402
from worker import CONFIGS, run_config  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"], proc.stdout
    per_run = [json.loads(line.split("] result ", 1)[1])
               for line in proc.stdout.splitlines() if "] result " in line]
    assert len(per_run) == 2 * len(WORKLOADS)
    for untraced, traced in zip(per_run[::2], per_run[1::2]):
        assert set(untraced["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
        assert set(traced["metrics"]) == set(metric_names())


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cells = worlds.report_world(out, seed=5, scale=0.05)
    config = zinorm.ReportConfig(
        publications=out / "publications.csv",
        membership=out / "membership.csv",
        indicators=tuple(zinorm.IndicatorKind),
        compare=(("g00", "g01"),),
    )
    return cells, zinorm.run_report(config)


def test_report_oracle_accepts_zinorm_and_rejects_perturbed_mhq(report):
    cells, doc = report
    assert oracle.check_report(doc, cells, 4) == []
    perturbed = json.loads(json.dumps(doc))
    perturbed["groups"]["g01"]["mhq"]["value"] *= 1 + 1e-6
    problems = oracle.check_report(perturbed, cells, 4)
    assert len(problems) == 1 and "g01 mhq value" in problems[0]
    del perturbed["groups"]["g02"]
    assert checked(oracle.check_report, perturbed, cells, 4)[0].startswith("malformed output: KeyError")


def test_refilter_oracle_rejects_perturbed_mhq(tmp_path):
    cells = worlds.refilter_world(tmp_path, seed=4, scale=0.1)
    with open(tmp_path / "publications.csv", newline="") as fh:
        records = zinorm.parse_publications(fh)
    with open(tmp_path / "membership.csv", newline="") as fh:
        pairs = zinorm.parse_membership(fh)
    world, groups = zinorm.build_profiles(records, pairs)
    config = CONFIGS[-1]
    result = run_config(zinorm, world, groups, *config)
    attempted, failed, problems = oracle.check_refilter_config(result, cells, config)
    assert (attempted, failed, problems) == (17, 0, [])
    result["groups"]["g03"]["mhq"][0] *= 1 + 1e-6
    _, failed, problems = oracle.check_refilter_config(result, cells, config)
    assert failed == 0 and len(problems) == 1 and "g03 mhq value" in problems[0]


def test_defect_prediction_matches_zinorm_message():
    # One stratum: the world has one mentioned and one unmentioned paper,
    # and the group holds the unmentioned one.
    cells = worlds.Cells(
        keys=[("F000", 2001)], labels=["g00"],
        world_m=np.array([1.0]), world_n=np.array([1.0]),
        group_m=np.array([[0.0]]), group_n=np.array([[1.0]]),
        assignments=2, papers=2, membership_rows=1,
    )
    keep = oracle.keep_mask(cells, "correct", 1, None)
    sites = oracle.defect_sites(cells, keep)
    assert sites == {("F000/2001", "g00")}
    key = zinorm.StratumKey("F000", 2001)
    world = zinorm.CountProfile("world", {key: zinorm.CellCounts(1, 1)})
    group = zinorm.CountProfile("g00", {key: zinorm.CellCounts(0, 1)})
    corrected = zinorm.continuity_correct(world, {"g00": group})
    with pytest.raises(zinorm.InputDataError) as exc:
        zinorm.mnpc(corrected.groups["g00"], corrected.world)
    message = f"InputDataError: {exc.value}"
    assert oracle.is_documented_defect(message, sites)
    assert not oracle.is_documented_defect(message, set())
    world_row = {"emnpc": [1.0, 0.5, 2.0, 1], "mhq": [1.0, 0.5, 2.0, 1], "mnpc": [1.0, 0.5, 2.0, 1]}
    result = {"strata_kept": 1, "strata_removed": 0, "groups": {"g00": {"error": message}, "world": world_row},
              "verdicts": []}
    assert oracle.check_refilter_config(result, cells, ("correct", 1, None)) == (2, 1, [])
    attempted, failed, problems = oracle.check_refilter_config(result, cells, ("drop", 1, None))
    assert failed == 1 and "unexpected error" in problems[0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1, "op"),
        ("b", 1.0, 5.0, 0, "op"),
        ("c", 2.0, 3.0, 1, "op"),
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0]


def test_install_traces_every_binding_and_marks_missing_layers(monkeypatch):
    import tracing

    layers = dict(tracing.LAYERS)
    layers["indicators.gone"] = ("zinorm.indicators", "no_such_function", {})
    monkeypatch.setattr(tracing, "LAYERS", layers)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "zinorm" and m]
    saved = [(m, k, v) for m in modules for k, v in vars(m).items() if not k.startswith("__")]
    tables = [(v, dict(v)) for _, _, v in saved if isinstance(v, dict)]
    original_mhq = zinorm.mhq
    tracer = Tracer()
    try:
        install(tracer)
        assert zinorm.mhq is zinorm.report.mhq is zinorm.indicators.mhq
        assert zinorm.mhq.__wrapped__ is original_mhq
        key = zinorm.StratumKey("F", 2001)
        world = zinorm.CountProfile("world", {key: zinorm.CellCounts(5, 5)})
        group = zinorm.CountProfile("g", {key: zinorm.CellCounts(2, 1)})
        zinorm.mhq(group, world)
    finally:
        for module, key, value in saved:
            setattr(module, key, value)
        for table, contents in tables:
            table.clear()
            table.update(contents)
    assert zinorm.mhq is original_mhq
    assert "indicators.gone" in tracer.absent
    assert [span[0] for span in tracer.spans] == ["indicators.mhq", "kernels.mh_accumulate"]
    assert tracer.counters["indicators.mhq.calls"] == 1
    assert tracer.counters["kernels.mh_accumulate.bytes_computed"] == 32


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
