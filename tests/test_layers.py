"""The names the pipeline benchmark wraps must exist in the package.

`perfbench/tracing.py` wraps zinorm's functions by (module, attribute);
a layer whose name is gone drops its metrics from every traced run. This
reads that table, without changing it, so a deletion that breaks the
benchmark fails here too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import zinorm

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


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
