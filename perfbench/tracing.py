"""In-memory span tracing around zinorm's public functions.

The tracer never edits zinorm. `install` replaces a function with a timing
wrapper at every name it is bound to inside the loaded ``zinorm`` modules
(module attributes, plus values of module-level dicts such as dispatch
tables), so a call is traced under the name its caller uses. Spans are kept
in memory and written once, by `Tracer.dump`, when the traced process ends.

A span is ``(layer, start, end, parent, op)``: ``parent`` is the index of
the enclosing span or -1, and ``op`` the operation id set by the caller.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _len_first(result, args):
    return len(result[0])


def _bytes_of_paths(result, args):
    return sum(Path(p).stat().st_size for p in result)


# Layer name -> (module, attribute, {counter: fn(result, args)}). Byte counts
# of the MH kernels are computed from array shapes (4 float64 inputs per
# cell), not measured.
LAYERS = {
    "cli.main": ("zinorm.cli", "main", {}),
    "report.run_report": ("zinorm.report", "run_report", {}),
    "report.parse_publications": ("zinorm.report", "parse_publications", {"rows": lambda r, a: len(r)}),
    "report.parse_membership": ("zinorm.report", "parse_membership", {"rows": lambda r, a: len(r)}),
    "profiles.build_profiles": ("zinorm.profiles", "build_profiles", {"strata": _len_first}),
    "profiles.apply_filters": ("zinorm.profiles", "apply_filters", {"strata_removed": lambda r, a: len(r.removed)}),
    "profiles.continuity_correct": ("zinorm.profiles", "continuity_correct", {"cells_corrected": lambda r, a: len(r.notes)}),
    "report.compute_rows": ("zinorm.report", "compute_rows", {}),
    "indicators.emnpc": ("zinorm.indicators", "emnpc", {}),
    "indicators.mnpc": ("zinorm.indicators", "mnpc", {}),
    "indicators.mhq": ("zinorm.indicators", "mhq", {}),
    "indicators.mhq_prime": ("zinorm.indicators", "mhq_prime", {}),
    "kernels.mh_accumulate": (
        "zinorm._kernels",
        "mh_accumulate",
        {"strata": lambda r, a: len(a[0]), "bytes_computed": lambda r, a: 32 * len(a[0])},
    ),
    "kernels.mh_batch": (
        "zinorm._kernels",
        "mh_batch",
        {"cells": lambda r, a: a[0].size, "bytes_computed": lambda r, a: 32 * a[0].size},
    ),
    "synth.replication_draws": ("zinorm.synth", "_replication_draws", {}),
    "synth.true_indicator_values": ("zinorm.synth", "true_indicator_values", {}),
    "synth.coverage_experiment": ("zinorm.synth", "coverage_experiment", {}),
    "synth.generate_synthetic": ("zinorm.synth", "generate_synthetic", {"records": _len_first}),
    "synth.write_synthetic": ("zinorm.synth", "write_synthetic", {"bytes": _bytes_of_paths}),
    "overlap.classify_overlap": ("zinorm.overlap", "classify_overlap", {}),
    "report.build_comparisons": ("zinorm.report", "build_comparisons", {}),
    "report.render_json": ("zinorm.report", "render_json", {"bytes": lambda r, a: len(r.encode())}),
}

#: Layers whose calls (and, for the indicators, failed calls) are counted.
CALL_COUNTERS = {
    "indicators.emnpc": ("calls", "failed"),
    "indicators.mnpc": ("calls", "failed"),
    "indicators.mhq": ("calls", "failed"),
    "indicators.mhq_prime": ("calls", "failed"),
    "kernels.mh_accumulate": ("calls",),
    "overlap.classify_overlap": ("calls",),
}

#: Spans the traced processes open themselves, outside zinorm's functions.
OWN_SPANS = ("import.zinorm",)


def metric_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {}
    for layer in (*OWN_SPANS, *LAYERS):
        names[f"{layer}.self_s"] = "s"
        counters = (*LAYERS.get(layer, ("", "", {}))[2], *CALL_COUNTERS.get(layer, ()))
        for counter in counters:
            names[f"{layer}.{counter}"] = "bytes" if "bytes" in counter else "count"
    names["indicators.emnpc.useful_ratio"] = "ratio"
    for name in ("wall_s", "untraced_wall_s", "overhead_s", "residual_s"):
        names[f"trace.{name}"] = "s"
    return names


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op = ""
        self._stack: list[int] = []
        self._emnpc_failed = False

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def wrap(self, name: str, fn, counters: dict):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            failed = False
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                self._count(name, failed)
            for counter, count in counters.items():
                self.counters[f"{name}.{counter}"] += count(result, args)
            return result

        return traced

    def _count(self, name: str, failed: bool) -> None:
        counted = CALL_COUNTERS.get(name, ())
        if "calls" in counted:
            self.counters[f"{name}.calls"] += 1
        if "failed" in counted:
            self.counters[f"{name}.failed"] += failed
        if name == "indicators.emnpc":
            # A call right after a failed one is the corrected-profile
            # fallback, not a first attempt.
            if not self._emnpc_failed:
                self.counters["indicators.emnpc.first_attempts"] += 1
                self.counters["indicators.emnpc.useful"] += not failed
            self._emnpc_failed = failed

    def dump(self, path: Path) -> None:
        doc = {"spans": self.spans, "counters": dict(self.counters), "absent": self.absent}
        path.write_text(json.dumps(doc), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every layer in `LAYERS` wherever the loaded zinorm modules bind it.

    A layer whose module or function no longer exists is recorded in
    ``tracer.absent`` and skipped.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "zinorm" and m]
    for name, (module_name, attr, counters) in LAYERS.items():
        if module_name not in sys.modules:
            # Not imported by this operation, so never called: it reports
            # zero, unless the module is gone from the package altogether.
            if importlib.util.find_spec(module_name) is None:
                tracer.absent.append(name)
            continue
        original = getattr(sys.modules[module_name], attr, None)
        if original is None:
            tracer.absent.append(name)
            continue
        wrapper = tracer.wrap(name, original, counters)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
