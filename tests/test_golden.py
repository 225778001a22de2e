"""Byte-for-byte pins of the CLI outputs on the committed fixtures.

Each case runs ``python -m zinorm`` from the repository root with relative
fixture paths (reports echo the input paths in ``audit.config``) and
compares stdout with a file under ``tests/fixtures/golden/``. To regenerate
a golden file after an intended output change, run the case's command from
the repository root and redirect stdout into the file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"

REPORT_ARGS = (
    "compute",
    "--publications", "tests/fixtures/small_world_publications.csv",
    "--membership", "tests/fixtures/small_world_membership.csv",
    "--indicators", "emnpc,mnpc,mhq,mhq_prime",
    "--compare", "setA:setB",
)

CASES = {
    "report.json": (*REPORT_ARGS, "--format", "json"),
    "report.txt": REPORT_ARGS,
    "report_drop.json": (
        *REPORT_ARGS,
        "--format", "json",
        "--zero-handling", "drop",
        "--min-stratum-papers", "0",
    ),
    "coverage.json": (
        "coverage", "--spec", "tests/fixtures/coverage_spec.json", "--reps", "2000",
    ),
    "validity.json": ("validity", "--spec", "tests/fixtures/validity_spec.json"),
}


def source_env() -> dict:
    """The environment with the repository's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name):
    proc = subprocess.run(
        [sys.executable, "-m", "zinorm", *CASES[name]],
        capture_output=True,
        cwd=ROOT,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()
