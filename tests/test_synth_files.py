"""The CSV files `write_synthetic` writes, byte for byte.

The writer encodes each block of rows from byte columns. These tests hold
it to a reference that formats one ``%s`` line per record, on tables made
in code or read by the csv reader (ids that the CSV format would quote,
and counts past int64) and on tables read by the plain reader (spans of
the file's bytes), and check that the files `synth` writes read back as
the tables that were generated, and that a failed write leaves no file.
"""

import csv
import io
import logging
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zinorm import (
    GroupSpec,
    InputDataError,
    StratumKey,
    StratumSpec,
    WorldSpec,
    generate_synthetic,
    parse_membership,
    parse_publications,
    write_synthetic,
)
from zinorm import profiles
from zinorm.profiles import Publications
from zinorm.report import PUBLICATION_HEADER

from conftest import COVERAGE_SPEC, columns

#: Id characters the plain reader takes; tables from code or the csv reader hold the rest too.
PLAIN = ["a", "Z", "0", ":", " ", "é", "€", "𝄞", "\x00"]
ANY = PLAIN + [",", '"', "\n", "\r"]
INT64_MAX = 2**63 - 1


def ids(characters):
    """Ids of 1 to 40 UTF-8 bytes."""
    text = st.text(st.sampled_from(characters), min_size=1, max_size=40)
    return text.filter(lambda t: len(t.encode("utf-8")) <= 40)


@st.composite
def tables(draw):
    """Publication rows and pairs, and where the table comes from: code, the plain reader or csv."""
    source = draw(st.sampled_from(["code", "plain", "csv"]))
    characters = PLAIN if source == "plain" else ANY
    # The plain reader takes at most 18 digits; a table clips counts past int64.
    largest = [10**18 - 1] if source == "plain" else [INT64_MAX, 2**70]
    mentions = st.one_of(
        st.integers(0, 3), *map(st.just, largest), *(st.integers(0, top) for top in largest)
    )
    years = st.one_of(st.sampled_from([1900, 2100]), st.integers(1900, 2100))
    row = st.tuples(ids(characters), ids(characters), years, mentions)
    rows = draw(st.lists(row, min_size=1, max_size=40))
    pairs = draw(st.lists(st.tuples(ids(ANY), ids(ANY)), max_size=10))
    return rows, pairs, source


def table_of(rows, source) -> Publications:
    if source == "code":
        return Publications(*map(list, zip(*rows)))
    text = io.StringIO()
    if source == "plain":
        text.write("paper_id,field_id,year,mentions\n")
        text.writelines("%s,%s,%s,%s\n" % row for row in rows)
    else:
        writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerows([PUBLICATION_HEADER, *rows])
    table = parse_publications(io.StringIO(text.getvalue(), newline=""))
    # The plain reader numbers its lines with a range, the csv reader with a list.
    assert isinstance(table.line, range) == (source == "plain")
    return table


def reference(table, pairs) -> tuple[bytes, bytes]:
    """The two files, formatted one ``%s`` line per record."""
    publications = "paper_id,field_id,year,mentions\n" + "".join("%s,%s,%s,%s\n" % r for r in table)
    membership = "paper_id,group_id\n" + "".join("%s,%s\n" % pair for pair in pairs)
    return publications.encode("utf-8"), membership.encode("utf-8")


def written(table, pairs) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as out:
        paths = write_synthetic(table, pairs, out)
        return tuple(Path(path).read_bytes() for path in paths)


class TestWriteSynthetic:
    @given(tables(), st.sampled_from([1, 2, 3, 1 << 16]))
    @settings(max_examples=200, deadline=None)
    @example(([("p", "f", 1900, 0), ("pé", "f", 2100, 2**64)], [], "code"), 1 << 16)
    def test_files_equal_one_line_per_record(self, drawn, block_rows):
        rows, pairs, source = drawn
        table = table_of(rows, source)
        # Small blocks put block seams between rows of every kind.
        with mock.patch.object(profiles, "_BLOCK_ROWS", block_rows):
            assert written(table, pairs) == reference(table, pairs)

    @pytest.mark.parametrize("where", ["paper_id", "field_id", "pair"])
    def test_id_that_is_not_utf8_raises(self, where):
        bad = "g\udc80"
        paper_id = bad if where == "paper_id" else "p2"
        field_id = bad if where == "field_id" else "f"
        rows = [("p1", "f", 2000, 1), (paper_id, field_id, 2000, 0)]
        pairs = [("p1", bad)] if where == "pair" else []
        table = Publications(*map(list, zip(*rows)))
        with pytest.raises(InputDataError, match="does not encode as UTF-8"):
            written(table, pairs)

    def test_failed_write_leaves_the_files_as_they_were(self, tmp_path):
        # The bad id is in the second encoder block, after a whole block is written.
        rows = 70_001
        paper_id = [f"p{i}" for i in range(rows - 1)] + ["g\udc80"]
        table = Publications(paper_id, ["f"] * rows, [2000] * rows, [0] * rows)
        with pytest.raises(InputDataError, match="does not encode as UTF-8"):
            write_synthetic(table, [], tmp_path)
        assert list(tmp_path.iterdir()) == []

        complete = b"paper_id,field_id,year,mentions\np,f,2000,1\n"
        (tmp_path / "publications.csv").write_bytes(complete)
        with pytest.raises(InputDataError, match="does not encode as UTF-8"):
            write_synthetic(table, [("p0", "g")], tmp_path)
        assert [path.name for path in tmp_path.iterdir()] == ["publications.csv"]
        assert (tmp_path / "publications.csv").read_bytes() == complete


def test_synth_files_read_back_as_the_generated_table(tmp_path, caplog):
    # 100001 background papers in one stratum, so that index 100000 takes six
    # digits and the rows span two encoder blocks; non-ASCII ids, and groups
    # absent from one stratum.
    strata = (
        StratumSpec(StratumKey("bé", 2001), 100001, 0.3),
        StratumSpec(StratumKey("f€", 1900), 9, 0.5),
    )
    groups = (GroupSpec("gé", (0, 2), 2.0), GroupSpec("h", (0, 3), 0.5))
    spec = WorldSpec(seed=11, strata=strata, groups=groups)
    table, pairs = generate_synthetic(spec)
    pub_path, mem_path = write_synthetic(table, pairs, tmp_path)
    with caplog.at_level(logging.INFO, logger="zinorm.report"):
        with open(pub_path, newline="", encoding="utf-8") as fh:
            read = parse_publications(fh)
    assert "reader fast" in caplog.text
    assert columns(read) == columns(table)
    with open(mem_path, newline="", encoding="utf-8") as fh:
        assert list(parse_membership(fh)) == list(pairs)

    # The ids are those that one f-string per paper gave.
    labels = [g.label for g in groups] + ["bg"]
    expected = [
        (f"{label}:{s.key.field_id}:{s.key.year}:{j:05d}", label)
        for s, sizes in zip(strata, spec.sizes.T.tolist())
        for label, size in zip(labels, sizes)
        for j in range(size)
    ]
    paper_ids = columns(table)[0]
    assert paper_ids == [paper_id for paper_id, _ in expected]
    assert paper_ids[100000] == "bg:bé:2001:100000"
    assert list(pairs) == [(paper_id, label) for paper_id, label in expected if label != "bg"]


def test_coverage_spec_files_read_back_fast_as_the_generated_tables(tmp_path, caplog):
    table, members = generate_synthetic(WorldSpec.from_json(COVERAGE_SPEC))
    pub_path, mem_path = write_synthetic(table, members, tmp_path)
    with caplog.at_level(logging.INFO, logger="zinorm.report"):
        with open(pub_path, newline="", encoding="utf-8") as fh:
            read = parse_publications(fh)
        with open(mem_path, newline="", encoding="utf-8") as fh:
            read_members = parse_membership(fh)
    stages = [message for message in caplog.messages if message.startswith("report.parse_")]
    assert [stage.rsplit(" ", 2)[1:] for stage in stages] == [["reader", "fast"]] * 2
    assert columns(read) == columns(table)
    for column in ("_paper", "_group"):
        assert getattr(read_members, column).decode() == getattr(members, column).decode()
    assert len(read_members) == len(members) > 0
