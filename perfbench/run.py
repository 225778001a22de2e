#!/usr/bin/env python3
"""zinorm pipeline benchmark: four workloads timed end to end and per layer.

Run from the root of a source checkout (zinorm is imported from ``src``):

    python3 perfbench/run.py --workload report-1m --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --smoke                      # tiny scale, all workloads, both modes

Each run is a single-process closed loop: it generates the workload's inputs
from ``--seed``, then sends one operation at a time until the operations'
wall times add up to ``--seconds`` (at least one operation), checking every
output with the oracle in ``oracle.py``. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it adds one traced operation and reports the per-layer metrics
from its spans. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 after a completed run (also when an operation failed; see
``correct`` and ``failed``), 2 when zinorm's sources are missing or an
argument is invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import worlds  # noqa: E402
from tracing import metric_names, self_times  # noqa: E402
from worker import CONFIGS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
WORKER = HERE / "worker.py"

#: No further operation starts once it could push a run past this many
#: seconds; a run must end within 180 s.
RUN_BUDGET_S = 150.0
#: A child still running after this is killed, so a hung operation fails
#: instead of holding the run.
CHILD_TIMEOUT_S = 170.0

COMPARE = ["g00:g01", "g01:g02", "g02:g03"]
COVERAGE_KINDS = 3

@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


@dataclass
class Op:
    """Outcome of one operation."""

    wall_s: float
    rss_mb: float
    attempted: int
    failed: int
    problems: list[str]
    digest: str
    setup_s: float | None = None
    spans: Path | None = None
    notes: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


class Launcher:
    """Runs children through ``launch.py``, so their peak RSS is their own."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], stdout: Path) -> Child:
        """Run one child to completion and return its wall time, peak RSS and exit code."""
        stderr = stdout.with_suffix(".stderr")
        request = {
            "argv": argv, "stdout": str(stdout), "stderr": str(stderr),
            "env": child_env(), "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        done = json.loads(reply)
        return Child(done["wall_s"], done["rss_mb"], done["code"], stderr.read_text(errors="replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256_files(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def checked(check, *args):
    """Run an oracle check; output it cannot parse is a problem, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


class Workload:
    """One workload: inputs from a seed, a timed operation, and its checks."""

    name = ""
    #: Operations a run makes even after --seconds have been measured.
    min_ops = 1

    def __init__(self, launcher: Launcher, work: Path, seed: int, smoke: bool) -> None:
        self.run_child = launcher.run
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.checked: set[str] = set()

    def prepare(self) -> None:
        raise NotImplementedError

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter importing the CLI."""
        return self.run_child([sys.executable, "-c", "import zinorm.cli"], self.work / "setup.out").wall_s

    def setup_samples(self, first_op: Op) -> list[float]:
        return [self.setup_sample() for _ in range(9)]

    def operation(self, traced: bool, index: int) -> Op:
        raise NotImplementedError


class CliWorkload(Workload):
    """A ``zinorm`` command run as a child process, or traced in-process."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, index: int) -> list[str]:
        raise NotImplementedError

    def expected_failure(self, stderr: str) -> bool:
        return False

    def outputs(self, out: Path, index: int) -> list[Path]:
        return [out]

    def operation(self, traced: bool, index: int) -> Op:
        out = self.work / f"op{index}.out"
        spans = self.work / f"op{index}.spans.json"
        if traced:
            cmd = [sys.executable, str(WORKER), "cli", str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "zinorm"]
        child = self.run_child(cmd + self.argv(index), out)
        op = Op(child.wall_s, child.rss_mb, 1, 0, [], "", spans=spans if traced else None)
        if child.code != 0:
            op.failed = 1
            message = child.stderr.strip().splitlines()[-1:] or [f"exit {child.code}"]
            op.notes.append(f"exit {child.code}: {message[0]}")
            if not self.expected_failure(child.stderr):
                op.problems.append(f"unexpected failure, exit {child.code}: {message[0]}")
            return op
        op.digest = sha256_files(*self.outputs(out, index))
        if op.digest not in self.checked:
            op.problems = checked(self.check, out, index)
            if not op.problems:
                self.checked.add(op.digest)
        return op


class ReportWorkload(CliWorkload):
    name = "report-1m"

    def prepare(self) -> None:
        self.cells = worlds.report_world(self.work / "inputs", self.seed, 0.05 if self.smoke else 1.0)

    def argv(self, index: int) -> list[str]:
        return [
            "compute",
            "--publications", str(self.work / "inputs" / "publications.csv"),
            "--membership", str(self.work / "inputs" / "membership.csv"),
            "--indicators", "emnpc,mnpc,mhq,mhq_prime",
            "--compare", *COMPARE,
            "--format", "json",
        ]

    def check(self, out: Path, index: int) -> list[str]:
        doc = json.loads(out.read_text(encoding="utf-8"))
        return oracle.check_report(doc, self.cells, 4 * len(COMPARE))

    def expected_failure(self, stderr: str) -> bool:
        keep = oracle.keep_mask(self.cells, "correct", 10, None)
        return oracle.is_documented_defect(stderr, oracle.defect_sites(self.cells, keep))


class SpecWorkload(CliWorkload):
    def prepare(self) -> None:
        self.spec = worlds.world_spec(self.seed, 0.05 if self.smoke else 1.0)
        self.spec_path = self.work / "spec.json"
        worlds.write_spec(self.spec_path, self.spec)


class CoverageWorkload(SpecWorkload):
    name = "coverage-2k"
    # Two 6-s operations leave the median too noisy across runs.
    min_ops = 3

    @property
    def reps(self) -> int:
        return 400 if self.smoke else 2000

    def argv(self, index: int) -> list[str]:
        return ["coverage", "--spec", str(self.spec_path), "--reps", str(self.reps)]

    def check(self, out: Path, index: int) -> list[str]:
        doc = json.loads(out.read_text(encoding="utf-8"))
        return oracle.check_coverage(doc, self.reps, COVERAGE_KINDS, len(self.spec["groups"]))


class SynthWorkload(SpecWorkload):
    name = "synth-1m"

    def out_dir(self, index: int) -> Path:
        return self.work / f"synth{index}"

    def argv(self, index: int) -> list[str]:
        shutil.rmtree(self.out_dir(index), ignore_errors=True)
        return ["synth", "--spec", str(self.spec_path), "--out", str(self.out_dir(index))]

    def outputs(self, out: Path, index: int) -> list[Path]:
        return [self.out_dir(index) / "publications.csv", self.out_dir(index) / "membership.csv"]

    def check(self, out: Path, index: int) -> list[str]:
        return oracle.check_synth(self.out_dir(index), self.spec)

    def operation(self, traced: bool, index: int) -> Op:
        op = super().operation(traced, index)
        shutil.rmtree(self.out_dir(index), ignore_errors=True)
        return op


class RefilterWorkload(Workload):
    name = "refilter-10k"

    def prepare(self) -> None:
        self.cells = worlds.refilter_world(self.work / "inputs", self.seed, 0.1 if self.smoke else 1.0)

    def _worker(self, result: Path, extra: list[str]) -> tuple[Child, dict | None]:
        cmd = [
            sys.executable, str(WORKER), "refilter",
            str(self.work / "inputs" / "publications.csv"),
            str(self.work / "inputs" / "membership.csv"),
            str(result),
        ]
        child = self.run_child(cmd + extra, result.with_suffix(".out"))
        if child.code != 0:
            return child, None
        return child, json.loads(result.read_text(encoding="utf-8"))

    def setup_sample(self) -> float:
        child, doc = self._worker(self.work / "setup.json", ["--setup-only"])
        if doc is None:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()[-500:]}")
        return doc["setup_s"]

    def rows(self, config: tuple) -> int:
        """Operations in one configuration: the active groups and the world."""
        return len(oracle.active_groups(self.cells, oracle.keep_mask(self.cells, *config))) + 1

    def setup_samples(self, first_op: Op) -> list[float]:
        # The operation's own set-up is one sample; each extra one costs a
        # full parse and aggregation, so only one more is taken.
        return [s for s in (first_op.setup_s, self.setup_sample()) if s is not None]

    def operation(self, traced: bool, index: int) -> Op:
        spans = self.work / f"op{index}.spans.json"
        extra = ["--spans", str(spans)] if traced else []
        child, doc = self._worker(self.work / f"op{index}.json", extra)
        if doc is None:
            rows = sum(self.rows(config) for config in CONFIGS)
            message = (child.stderr.strip().splitlines() or [f"exit {child.code}"])[-1]
            return Op(child.wall_s, child.rss_mb, rows, rows, [f"worker failed: {message}"], "")
        problems = []
        counts = (doc["assignments"], doc["papers"], doc["membership_rows"], doc["world_papers"])
        want = (self.cells.assignments, self.cells.papers, self.cells.membership_rows, self.cells.assignments)
        if counts != want:
            problems.append(f"assignment/paper/membership counts {counts} != {want}")
        attempted = failed = 0
        notes = []
        for config, result in zip(CONFIGS, doc["configs"]):
            outcome = checked(oracle.check_refilter_config, result, self.cells, config)
            if isinstance(outcome, list):
                outcome = (self.rows(config), self.rows(config), outcome)
            rows, rows_failed, config_problems = outcome
            attempted += rows
            failed += rows_failed
            problems += config_problems
            errors = [result.get("error")] + [row.get("error") for row in result.get("groups", {}).values()]
            notes += [f"config {config}: {error}" for error in errors if error]
        digest = hashlib.sha256(json.dumps(doc["configs"], sort_keys=True).encode()).hexdigest()
        return Op(
            doc["session_s"], child.rss_mb, attempted, failed, problems, digest,
            setup_s=doc["setup_s"], spans=spans if traced else None, notes=notes,
        )


WORKLOADS = {w.name: w for w in (ReportWorkload, RefilterWorkload, CoverageWorkload, SynthWorkload)}


def probe_backend(launcher: Launcher, work: Path) -> str:
    """Import zinorm once in a child: compiles bytecode and names the MH backend."""
    code = (
        "import zinorm, zinorm.cli, zinorm._kernels as k;"
        "print(zinorm.__file__); print(getattr(k, 'BACKEND', 'none'))"
    )
    out = work / "probe.out"
    child = launcher.run([sys.executable, "-c", code], out)
    if child.code != 0:
        raise RuntimeError(f"cannot import zinorm from {SRC}: {child.stderr.strip()[-500:]}")
    path, backend = out.read_text().split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"zinorm was imported from {path}, not from {SRC}")
    return backend


def provenance(seed: int, backend: str, digests: list[str]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "zinorm").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "output_sha256": sorted(set(d for d in digests if d)),
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    p = int(100 * (n - 10) / n)
    return p, ordered[max(0, -(-p * n // 100) - 1)]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:<12} {statistics.median(values):.6g} {unit}  (median of {len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f"; p{tail[0]} {tail[1]:.6g}"
    return line + ")"


def layer_metrics(spans_path: Path, timed_ops: tuple[str, ...], wall_s: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from one traced operation's spans.

    Returns ``(metrics, self time per layer inside the timed operation,
    absent layers)``. A layer that never ran reports zero; a layer whose
    function no longer exists is absent and not reported. The residual is
    the traced wall time minus every self time inside the timed operation:
    interpreter start, harness code and span bookkeeping.
    """
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = doc["spans"]
    absent = sorted(doc["absent"])
    values = dict(doc["counters"])
    timed: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        key = f"{span[0]}.self_s"
        values[key] = values.get(key, 0.0) + self_s
        if span[4].startswith(timed_ops):
            timed[span[0]] = timed.get(span[0], 0.0) + self_s
    attempts = values.get("indicators.emnpc.first_attempts", 0.0)
    values["indicators.emnpc.useful_ratio"] = (
        values.get("indicators.emnpc.useful", 0.0) / attempts if attempts else 0.0
    )
    metrics = {
        name: (values.get(name, 0.0), unit)
        for name, unit in metric_names().items()
        if name.rsplit(".", 1)[0] not in absent and not name.startswith("trace.")
    }
    metrics["trace.residual_s"] = (wall_s - sum(timed.values()), "s")
    return metrics, timed, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload and return its result object; prints human-readable lines."""
    started = time.perf_counter()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        workload = WORKLOADS[name](launcher, work, seed, smoke)
        t = time.perf_counter()
        workload.prepare()
        print(f"[{name}] seed {seed}: inputs generated in {time.perf_counter() - t:.2f} s", flush=True)
        backend = probe_backend(launcher, work)

        # Operations run until their own wall times add up to --seconds
        # (checking outputs is not counted) and there are at least min_ops.
        # A further operation must leave room for one more (traced, or the
        # set-up samples) within the budget.
        ops: list[Op] = []
        loop_start = time.perf_counter()
        while True:
            ops.append(workload.operation(False, len(ops)))
            loop_s = time.perf_counter() - loop_start
            per_op = loop_s / len(ops)
            if sum(op.wall_s for op in ops) >= seconds and len(ops) >= workload.min_ops:
                break
            if time.perf_counter() - started + 2 * per_op > RUN_BUDGET_S:
                break
        traced = workload.operation(True, len(ops)) if trace else None
        setup = [] if trace else workload.setup_samples(ops[0])

        every = ops + ([traced] if traced else [])
        attempted = sum(op.attempted for op in every)
        failed = sum(op.failed for op in every)
        problems = [p for op in every for p in op.problems]
        digests = [op.digest for op in every]
        if len({d for d in digests if d}) > 1:
            problems.append("output bytes differ between operations on the same inputs")
        for note in sorted({n for op in every for n in op.notes}):
            print(f"[{name}] failed operation: {note}")
        for problem in problems[:20]:
            print(f"[{name}] CHECK FAILED: {problem}")

        walls = [op.wall_s for op in ops]
        print(f"[{name}] {len(ops)} untraced operation(s) in {loop_s:.1f} s")
        print(f"[{name}] " + describe("wall_s", walls, "s"))
        print(f"[{name}] " + describe("peak_rss_mb", [op.rss_mb for op in ops], "MiB"))
        if setup:
            print(f"[{name}] " + describe("setup_s", setup, "s"))
        print(f"[{name}] fail_rate    {failed / attempted:.6g} ({failed}/{attempted})")
        print(f"[{name}] provenance {json.dumps(provenance(seed, backend, digests))}")

        if traced is not None and not traced.spans.is_file():
            problems.append("the traced operation wrote no spans")
            print(f"[{name}] CHECK FAILED: {problems[-1]}")
            metrics = {}
        elif traced is None:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (statistics.median(op.rss_mb for op in ops), "MiB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        else:
            timed_ops = ("config-",) if name == RefilterWorkload.name else ("cli",)
            metrics, timed, absent = layer_metrics(traced.spans, timed_ops, traced.wall_s)
            untraced = statistics.median(walls)
            metrics["trace.wall_s"] = (traced.wall_s, "s")
            metrics["trace.untraced_wall_s"] = (untraced, "s")
            metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")
            print(f"[{name}] traced wall_s {traced.wall_s:.4f} s, untraced {untraced:.4f} s, "
                  f"tracing overhead {traced.wall_s - untraced:+.4f} s")
            print(f"[{name}] self time inside the timed operation (share of traced wall_s):")
            for layer, value in sorted(timed.items(), key=lambda kv: -kv[1]):
                print(f"[{name}]   {layer:<30} {value:10.4f} s  {100 * value / traced.wall_s:6.2f}%")
            residual = metrics["trace.residual_s"][0]
            print(f"[{name}]   {'residual (outside spans)':<30} {residual:10.4f} s  "
                  f"{100 * residual / traced.wall_s:6.2f}%")
            if absent:
                print(f"[{name}] absent layers (function not found): {', '.join(absent)}")
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every workload, both modes")
    args = parser.parse_args(argv)

    if not (SRC / "zinorm" / "__init__.py").is_file():
        print(f"error: no zinorm sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        runs = [(name, bool(args.trace)) for name in names]
    results = []
    for name, trace in runs:
        result = run_workload(name, args.seed, 0.0 if args.smoke else args.seconds, trace, args.smoke)
        results.append((name, result))
        if len(runs) > 1:
            print(f"[{name}] result {json.dumps(result)}")
    if len(runs) == 1:
        print(json.dumps(results[0][1]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
