import os
from pathlib import Path
from typing import NamedTuple

import pytest

from zinorm import build_profiles, parse_membership, parse_publications
from zinorm.profiles import Publications

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"

PUBLICATIONS_CSV = FIXTURES / "small_world_publications.csv"
MEMBERSHIP_CSV = FIXTURES / "small_world_membership.csv"
COVERAGE_SPEC = FIXTURES / "coverage_spec.json"
VALIDITY_SPEC = FIXTURES / "validity_spec.json"


def source_env() -> dict:
    """The environment with the repository's ``src`` first on ``PYTHONPATH``, for child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture(scope="session")
def small_world():
    """(world, groups) profiles for the two-set worked example."""
    with open(PUBLICATIONS_CSV, newline="") as fh:
        records = parse_publications(fh)
    with open(MEMBERSHIP_CSV, newline="") as fh:
        pairs = parse_membership(fh)
    return build_profiles(records, pairs)


def table(rows):
    """A `Publications` table of (paper_id, field_id, year, mentions) rows."""
    return Publications(*map(list, zip(*rows)))


def columns(table):
    """The paper ids, field ids, years and mentions of a `Publications` table, as lists."""
    return [table._paper.decode(), table._field.decode(), table.year.tolist(), table.mentions.tolist()]


class Cell(NamedTuple):
    mentioned: float
    not_mentioned: float


def cells(profile):
    """Each stratum of `profile` with its row of `counts`."""
    return {key: Cell(*row) for key, row in zip(profile.strata(), profile.counts.tolist())}
