"""Byte-for-byte pins of the CLI outputs on the committed fixtures.

Each case runs ``python -m zinorm`` from the repository root with relative
fixture paths (reports echo the input paths in ``audit.config``) and
compares stdout with a file under ``tests/fixtures/golden/``. To regenerate
a golden file after an intended output change, run the case's command from
the repository root and redirect stdout into the file.

The files ``synth`` writes for the two fixture specs are pinned by their
sha256 digests in `SYNTH_DIGESTS`; after an intended change, run
``zinorm synth --spec tests/fixtures/<spec> --out <dir>`` and
``sha256sum <dir>/*``.
"""

import hashlib
import subprocess
import sys

import pytest

from conftest import ROOT, source_env

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

#: sha256 of publications.csv and membership.csv as `synth` writes them for each spec.
SYNTH_DIGESTS = {
    "coverage_spec.json": (
        "822f77c39e9fea2f963e3795a3ad279de89f6bbb439ef273e322d1e1e3813ab5",
        "ada5b99b343af7574bec2165f8c82a8d4d74816808a815eec31594b37061affc",
    ),
    "validity_spec.json": (
        "031fdd93ddcd4b11598404753fad82f2cfa0c3adb8724276543dfdf55c70508e",
        "ca257759485c5db02a742ac66b228ec7382b602e2b45dca404e9ff6ca71e0d2d",
    ),
}


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


@pytest.mark.parametrize("spec", sorted(SYNTH_DIGESTS))
def test_synth_files_match_pinned_digests(tmp_path, spec):
    proc = subprocess.run(
        [sys.executable, "-m", "zinorm", "synth", "--spec", f"tests/fixtures/{spec}", "--out", tmp_path],
        capture_output=True,
        cwd=ROOT,
        env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    written = (tmp_path / "publications.csv", tmp_path / "membership.csv")
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in written)
    assert digests == SYNTH_DIGESTS[spec]
