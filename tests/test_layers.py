"""The names the pipeline benchmark wraps must exist in the package.

`perfbench/tracing.py` wraps zinorm's functions by (module, attribute);
a layer whose name is gone drops its metrics from every traced run. This
reads that table, without changing it, so a deletion that breaks the
benchmark fails here too. A traced `compute` run checks that the report
pipeline still calls each layer by a name the tracer rebinds, and a small
`refilter` run checks that the library session the benchmark times still
sets up and passes its oracle. The benchmark's 1.1M-row report input,
written small, must take the plain reader: a silent fall-back to the csv
reader would still pass every check but the benchmark's time.
"""

import importlib
import importlib.util
import json
import logging
import subprocess
import sys
from collections import Counter

import pytest

import zinorm
from zinorm.indicators import IndicatorKind
from zinorm.report import ReportConfig, render_json, run_report

from conftest import columns
from test_golden import CASES, GOLDEN, ROOT, source_env

TRACING = ROOT / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_benchmark_layer_resolves(layer):
    module_name, attr, _ = LAYERS[layer]
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_report_binds_the_indicator_mhq():
    assert zinorm.report.mhq is zinorm.indicators.mhq


def test_traced_compute_spans_each_indicator_call(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "cli", str(spans_path), "--",
         *CASES["report.json"]],
        capture_output=True,
        cwd=ROOT,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "report.json").read_bytes()
    spans = json.loads(spans_path.read_text())["spans"]
    under = Counter(
        (layer, spans[parent][0])
        for layer, _, _, parent, _ in spans
        if parent >= 0 and spans[parent][0] in ("report.compute_rows", "report.build_comparisons")
    )
    assert under == {
        ("indicators.emnpc", "report.compute_rows"): 3,
        ("indicators.mnpc", "report.compute_rows"): 3,
        ("indicators.mhq", "report.compute_rows"): 3,
        ("indicators.mhq_prime", "report.compute_rows"): 2,
        ("profiles.continuity_correct", "report.compute_rows"): 1,
        ("overlap.classify_overlap", "report.build_comparisons"): 4,
    }


def test_refilter_worker_passes_the_oracle(tmp_path, monkeypatch):
    # The benchmark's own modules, imported as its scripts import each other.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worlds, oracle, worker = map(importlib.import_module, ("worlds", "oracle", "worker"))
    cells = worlds.refilter_world(tmp_path, 3, 0.1)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "refilter",
         str(tmp_path / "publications.csv"), str(tmp_path / "membership.csv"), str(result)],
        capture_output=True,
        cwd=ROOT,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(result.read_text())
    counts = (doc["assignments"], doc["papers"], doc["membership_rows"], doc["world_papers"])
    assert counts == (cells.assignments, cells.papers, cells.membership_rows, cells.assignments)
    assert len(doc["configs"]) == len(worker.CONFIGS)
    for config, outcome in zip(worker.CONFIGS, doc["configs"]):
        _, _, problems = oracle.check_refilter_config(outcome, cells, config)
        assert problems == [], config


def test_report_world_takes_the_plain_reader(tmp_path, monkeypatch, caplog):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worlds = importlib.import_module("worlds")
    worlds.report_world(tmp_path, 1, 0.01)
    publications = tmp_path / "publications.csv"
    with caplog.at_level(logging.INFO, logger="zinorm.report"):
        with open(publications, newline="", encoding="utf-8") as fh:
            fast = zinorm.parse_publications(fh)
    assert "reader fast" in caplog.text
    with open(publications, newline="", encoding="utf-8") as fh:
        slow = zinorm.parse_publications(list(fh))  # lines, not a file: the csv reader
    assert (columns(fast), list(fast.line)) == (columns(slow), list(slow.line))

    config = ReportConfig(
        publications=publications,
        membership=tmp_path / "membership.csv",
        indicators=tuple(IndicatorKind),
        compare=(("g00", "g01"), ("g01", "g02"), ("g02", "g03")),
    )
    plain = render_json(run_report(config))
    monkeypatch.setattr(zinorm.report, "_plain_publications", lambda text: "declined")
    with caplog.at_level(logging.INFO, logger="zinorm.report"):
        assert render_json(run_report(config)) == plain
    assert "reader csv (declined)" in caplog.text
