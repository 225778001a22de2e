import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zinorm import (
    DegenerateComputationError,
    IndicatorKind,
    InputDataError,
    ReportConfig,
    build_profiles,
    parse_membership,
    parse_publications,
    render_json,
    render_table,
    run_report,
)
from zinorm.cli import main
from zinorm.report import result_payload
from zinorm.indicators import IndicatorResult
from zinorm.profiles import PublicationRecord, Publications

from conftest import COVERAGE_SPEC, MEMBERSHIP_CSV, PUBLICATIONS_CSV, source_env

ALL_KINDS = tuple(IndicatorKind)


def config(**overrides):
    base = dict(
        publications=PUBLICATIONS_CSV,
        membership=MEMBERSHIP_CSV,
        indicators=ALL_KINDS,
    )
    base.update(overrides)
    return ReportConfig(**base)


class TestParsePublications:
    def test_happy_path(self):
        lines = [
            "paper_id,field_id,year,mentions",
            "p1,bio,2010,3",
            "p1,chem,2010,3",
            "p2,bio,2011,0",
        ]
        records = list(parse_publications(lines))
        assert len(records) == 3
        assert records[0].paper_id == "p1"
        assert records[2].mentions == 0

    def test_header_must_match_exactly(self):
        with pytest.raises(InputDataError, match="header"):
            parse_publications(["paper,field,year,mentions", "p1,b,2010,1"])

    def test_empty_input(self):
        with pytest.raises(InputDataError, match="empty"):
            parse_publications([])

    def test_no_data_rows(self):
        with pytest.raises(InputDataError, match="no data rows"):
            parse_publications(["paper_id,field_id,year,mentions"])

    def test_wrong_column_count_names_line(self):
        lines = ["paper_id,field_id,year,mentions", "p1,bio,2010"]
        with pytest.raises(InputDataError, match="line 2"):
            parse_publications(lines)

    def test_non_integer_year_names_line(self):
        lines = ["paper_id,field_id,year,mentions", "p1,bio,201O,1"]
        with pytest.raises(InputDataError, match="line 2.*year"):
            parse_publications(lines)

    def test_fractional_mentions_rejected(self):
        lines = ["paper_id,field_id,year,mentions", "p1,bio,2010,1.5"]
        with pytest.raises(InputDataError, match="not an integer"):
            parse_publications(lines)

    def test_negative_mentions_rejected(self):
        lines = ["paper_id,field_id,year,mentions", "p1,bio,2010,-2"]
        with pytest.raises(InputDataError, match="negative"):
            parse_publications(lines)

    def test_year_range_enforced(self):
        lines = ["paper_id,field_id,year,mentions", "p1,bio,1850,1"]
        with pytest.raises(InputDataError, match="outside"):
            parse_publications(lines)

    def test_duplicate_names_both_lines(self):
        # The paper and the stratum in the message locate both rows.
        lines = [
            "paper_id,field_id,year,mentions",
            "p1,bio,2010,1",
            "p2,bio,2010,1",
            "p1,bio,2010,0",
        ]
        with pytest.raises(
            InputDataError,
            match=r"^paper 'p1' assigned to stratum bio/2010 more than once$",
        ):
            build_profiles(parse_publications(lines), [])

    def test_same_paper_and_field_in_two_years(self):
        lines = [
            "paper_id,field_id,year,mentions",
            "p1,bio,2010,1",
            "p1,bio,2011,0",
        ]
        world, groups = build_profiles(parse_publications(lines), [("p1", "g")])
        assert [str(key) for key in world.strata()] == ["bio/2010", "bio/2011"]
        assert groups["g"].counts.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "row, body",
        [
            (",bio,2010,1", "empty paper_id"),
            ("p1,,2010,1", "empty field_id"),
            ("p1,bio,1850,1", "year 1850 outside [1900, 2100]"),
            ("p1,bio,2010,-2", "negative mention count -2"),
        ],
    )
    def test_row_rules_have_one_source(self, row, body):
        paper_id, field_id, year, mentions = row.split(",")
        with pytest.raises(InputDataError) as table_error:
            Publications([paper_id], [field_id], [int(year)], [int(mentions)])
        assert str(table_error.value) == body
        lines = ["paper_id,field_id,year,mentions", "p0,bio,2010,0", row]
        with pytest.raises(InputDataError) as parse_error:
            parse_publications(lines)
        assert str(parse_error.value) == f"line 3: {body}"

    def test_integer_syntax_reported_before_row_rules(self):
        lines = ["paper_id,field_id,year,mentions", ",bio,20x0,1"]
        with pytest.raises(InputDataError, match="^line 2: year '20x0' is not"):
            parse_publications(lines)

    @pytest.mark.parametrize("as_file", [False, True])
    def test_earlier_rule_error_beats_later_syntax_error(self, as_file):
        rows = ["p1,bio,1850,1"] + [f"p{i},bio,2010,0" for i in range(2, 8)]
        lines = ["paper_id,field_id,year,mentions", *rows, "p9,bio,20x0,1"]
        source = io.StringIO("\n".join(lines) + "\n") if as_file else lines
        with pytest.raises(InputDataError) as error:
            parse_publications(source)
        assert str(error.value) == "line 2: year 1850 outside [1900, 2100]"

    @pytest.mark.parametrize("as_file", [False, True])
    @pytest.mark.parametrize(
        "rows, message",
        [
            (["p1,bio,2010,9999999999999999999", "p2,bio,2010,-1"], "line 3: negative mention count -1"),
            (["p1,bio,9999999999999999999,0", "p2,bio,-1,0"], "line 2: year 9999999999999999999 outside [1900, 2100]"),
        ],
    )
    def test_rule_error_names_values_beyond_int64_as_integers(self, rows, message, as_file):
        # Python ints above 2**63 and below 0 have no common numpy integer dtype.
        lines = ["paper_id,field_id,year,mentions", *rows]
        source = io.StringIO("\n".join(lines) + "\n") if as_file else lines
        with pytest.raises(InputDataError) as error:
            parse_publications(source)
        assert str(error.value) == message

    def test_file_and_lines_give_the_same_table(self):
        text = PUBLICATIONS_CSV.read_text(encoding="utf-8")
        from_file = parse_publications(io.StringIO(text))
        from_lines = parse_publications(text.splitlines())
        assert list(from_file) == list(from_lines)
        assert list(from_file.line) == list(from_lines.line)
        assert all(type(row) is PublicationRecord for row in from_file)

    def test_blank_lines_skipped(self):
        lines = ["paper_id,field_id,year,mentions", "", "p1,bio,2010,1", ""]
        assert len(parse_publications(lines)) == 1

    @pytest.mark.parametrize("parse, header", [
        (parse_publications, "paper_id,field_id,year,mentions"),
        (parse_membership, "paper_id,group_id"),
    ])
    def test_field_over_csv_size_limit_is_refused_from_a_plain_file(self, parse, header):
        # The plain reader declines the file, so the csv module refuses the field.
        fields = ",".join(["p" * 140_000, "bio", "2010", "0"][: header.count(",") + 1])
        text = f"{header}\n{fields}\n"
        with pytest.raises(InputDataError, match=r"^line 2: field larger than field limit \(131072\)$"):
            parse(io.StringIO(text, newline=""))


class TestParseMembership:
    def test_happy_path(self):
        pairs = parse_membership(["paper_id,group_id", "p1,g", "p2,g"])
        assert list(pairs) == [("p1", "g"), ("p2", "g")]

    def test_header_must_match(self):
        with pytest.raises(InputDataError, match="header"):
            parse_membership(["paper,group", "p1,g"])

    def test_empty_body_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="zinorm.report"):
            assert list(parse_membership(["paper_id,group_id"])) == []
        assert any("no data rows" in r.message for r in caplog.records)

    def test_wrong_column_count(self):
        with pytest.raises(InputDataError, match="line 2"):
            parse_membership(["paper_id,group_id", "p1"])

    def test_empty_group_rejected(self):
        with pytest.raises(InputDataError, match="empty group_id"):
            parse_membership(["paper_id,group_id", "p1,"])


class TestReportConfig:
    def test_indicators_deduped_and_ordered(self):
        cfg = config(
            indicators=(IndicatorKind.MHQ, IndicatorKind.EMNPC, IndicatorKind.MHQ)
        )
        assert cfg.indicators == (IndicatorKind.EMNPC, IndicatorKind.MHQ)

    def test_empty_indicators_rejected(self):
        with pytest.raises(InputDataError):
            config(indicators=())

    def test_zero_handling_validated(self):
        with pytest.raises(InputDataError):
            config(zero_handling="maybe")

    def test_filter_fields_checked_when_built(self):
        with pytest.raises(InputDataError, match="min_stratum_papers must be non-negative"):
            config(min_stratum_papers=-1)


@pytest.fixture(scope="module")
def doc():
    return run_report(config(compare=(("setA", "setB"),)))


class TestRunReport:
    def test_sections_present(self, doc):
        assert set(doc) == {"groups", "comparisons", "audit"}
        assert set(doc["groups"]) == {"setA", "setB", "world"}

    def test_world_row_is_unity(self, doc):
        for kind in ("emnpc", "mnpc", "mhq"):
            assert doc["groups"]["world"][kind]["value"] == pytest.approx(1.0)
        assert "mhq_prime" not in doc["groups"]["world"]

    def test_group_values_match_goldens(self, doc):
        set_a = doc["groups"]["setA"]
        assert set_a["emnpc"]["value"] == pytest.approx(0.940062, abs=1e-6)
        assert set_a["mnpc"]["value"] == pytest.approx(0.942407, abs=1e-6)
        assert set_a["mhq"]["value"] == pytest.approx(0.810306, abs=1e-6)
        assert set_a["mhq_prime"]["value"] == pytest.approx(0.614817, abs=1e-6)

    def test_percent_present_only_below_two(self, doc):
        assert doc["groups"]["setA"]["mhq"]["percent_vs_world"] == pytest.approx(
            -18.9694, abs=1e-3
        )
        payload = result_payload(
            IndicatorResult(IndicatorKind.MHQ, 15.18, 10.0, 20.0, 3)
        )
        assert "percent_vs_world" not in payload

    def test_audit_counts(self, doc):
        audit = doc["audit"]
        assert audit["publications"]["papers"] == 158
        assert audit["publications"]["assignments"] == 158
        assert audit["membership"]["groups"] == ["setA", "setB"]
        assert audit["filters"]["strata_kept"] == 4
        assert any("corrected" in n for n in audit["notes"])

    def test_comparison_payload(self, doc):
        mhq_cmp = [
            c for c in doc["comparisons"] if c["indicator"] == "mhq"
        ]
        assert len(mhq_cmp) == 1
        assert mhq_cmp[0]["category"] == "substantial"
        assert mhq_cmp[0]["p_label"] == "not significant"
        # world has no mhq_prime, but setA vs setB does
        assert any(
            c["indicator"] == "mhq_prime" for c in doc["comparisons"]
        )

    def test_unknown_comparison_label(self):
        with pytest.raises(InputDataError, match="unknown population"):
            run_report(config(compare=(("setA", "ghost"),)))

    def test_zero_handling_drop(self):
        doc = run_report(config(zero_handling="drop"))
        assert doc["audit"]["filters"]["strata_kept"] == 3
        removed = doc["audit"]["filters"]["removed"]
        assert any(
            "no mentioned papers" in item["reason"] for item in removed
        )
        # without the zero stratum, MNPC needs no correction
        assert not any("corrected" in n for n in doc["audit"]["notes"])

    def test_min_stratum_papers_filter(self):
        doc = run_report(
            config(min_stratum_papers=25, indicators=(IndicatorKind.EMNPC,))
        )
        assert doc["audit"]["filters"]["strata_kept"] == 3
        removed = doc["audit"]["filters"]["removed"]
        assert any("fewer than 25" in item["reason"] for item in removed)
        # the ratio is unchanged by a both-zero stratum, but the pooled
        # totals behind the CI shrink once cat4 is gone
        emnpc = doc["groups"]["setA"]["emnpc"]
        assert emnpc["value"] == pytest.approx(0.940062, abs=1e-6)
        assert emnpc["ci_lower"] != pytest.approx(0.707551, abs=1e-6)

    def test_restrict_to_group_strata(self):
        doc = run_report(
            config(restrict_to_group_strata="setA", indicators=(IndicatorKind.MHQ,))
        )
        assert doc["audit"]["filters"]["strata_kept"] == 4

    def test_missing_file_is_input_error(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            run_report(config(publications=tmp_path / "nope.csv"))

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateComputationError, match="no strata remain"):
            run_report(config(min_stratum_papers=10_000))

    def test_collapse_years(self, tmp_path):
        pubs = tmp_path / "p.csv"
        pubs.write_text(
            "paper_id,field_id,year,mentions\n"
            + "".join(
                f"p{i},bio,{2000 + i % 3},{1 if i % 3 == 0 else 0}\n"
                for i in range(30)
            )
        )
        mem = tmp_path / "m.csv"
        mem.write_text(
            "paper_id,group_id\n"
            + "".join(f"p{i},g\n" for i in range(1, 30, 2))
        )
        doc = run_report(
            ReportConfig(
                publications=pubs,
                membership=mem,
                indicators=(IndicatorKind.MHQ,),
                collapse_years=True,
            )
        )
        assert doc["audit"]["filters"]["strata_kept"] == 1
        assert any("collapsed 3" in n for n in doc["audit"]["notes"])


class TestRenderers:
    def test_json_is_deterministic_and_sorted(self, doc):
        first = render_json(doc)
        second = render_json(doc)
        assert first == second
        assert first.endswith("\n")
        parsed = json.loads(first)
        assert list(parsed) == sorted(parsed)

    def test_table_contains_rows_and_audit(self, doc):
        text = render_table(doc)
        assert "population" in text
        assert "setA" in text and "world" in text
        assert "not significant" in text
        assert "papers: 158" in text

    def test_table_blanks_percent_at_two_or_more(self, doc):
        import copy

        doc2 = copy.deepcopy(doc)
        payload = doc2["groups"]["setA"]["mhq"]
        payload["value"] = 15.18
        payload.pop("percent_vs_world", None)
        text = render_table(doc2)
        line = next(
            l for l in text.splitlines() if l.startswith("setA") and " mhq " in l
        )
        assert line.rstrip().endswith("15.18") or "%" not in line


MALFORMED_STRATUM = {"field_id": "f0", "year": 2000, "world_size": 10, "mention_probability": 0.2}
MALFORMED_BASE = {
    "seed": 1,
    "strata": [MALFORMED_STRATUM],
    "groups": [{"label": "g", "sizes": 2, "theta": 2.0}],
}


def run_cli(*args, env_extra=None):
    """`zinorm *args` with its exit code, stdout and stderr.

    Runs `main` in this process unless `env_extra` sets variables: those
    runs (`ZINORM_LOG`) get a fresh process, since `logging.basicConfig`
    configures a process only once. In this process the root logger's
    handlers are cleared, so that `main` logs to the captured stderr, and
    the handlers and the level are restored after.
    """
    if env_extra is not None:
        return subprocess.run(
            [sys.executable, "-m", "zinorm", *args],
            capture_output=True,
            text=True,
            env={**source_env(), **env_extra},
        )
    root = logging.getLogger()
    handlers, level = root.handlers[:], root.level
    root.handlers.clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(list(args))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
    return subprocess.CompletedProcess(args, code, stdout.getvalue(), stderr.getvalue())


class TestCli:
    def test_compute_json_success(self):
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "emnpc,mnpc,mhq,mhq_prime",
            "--compare", "setA:setB",
            "--format", "json",
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["groups"]["setA"]["mhq"]["value"] == pytest.approx(
            0.810306, abs=1e-6
        )

    def test_indicator_alias_accepted(self):
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicator", "mhq",
            "--format", "json",
        )
        assert result.returncode == 0, result.stderr

    def test_output_file_written(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "mhq",
            "--format", "json",
            "--output", str(out),
        )
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["groups"]["world"]

    def test_utf8_bom_inputs_accepted(self, tmp_path):
        # Spreadsheet exports often start UTF-8 files with a byte-order mark.
        bom = b"\xef\xbb\xbf"
        pubs = tmp_path / "publications.csv"
        members = tmp_path / "membership.csv"
        pubs.write_bytes(bom + PUBLICATIONS_CSV.read_bytes())
        members.write_bytes(bom + MEMBERSHIP_CSV.read_bytes())
        args = ("--indicators", "mhq", "--format", "json")
        result = run_cli(
            "compute", "--publications", str(pubs), "--membership", str(members), *args
        )
        plain = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            *args,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["groups"] == json.loads(plain.stdout)["groups"]

    def test_integer_spellings_that_int_reads_are_accepted(self, tmp_path):
        # Years and mention counts are read as Python's int() reads them
        # (README "Input format"): digit-group underscores, surrounding
        # spaces, a plus sign, leading zeros and non-ASCII decimal digits.
        fullwidth = str.maketrans("0123456789", "０１２３４５６７８９")
        spellings = [
            "_".join,
            lambda digits: f" {digits} ",
            lambda digits: f"+{digits}",
            lambda digits: digits.translate(fullwidth),
            lambda digits: f"00{digits}",
        ]
        head, *lines = PUBLICATIONS_CSV.read_text().splitlines()
        respelled = [head]
        for i, line in enumerate(lines):
            paper, field, year, mentions = line.split(",")
            year, mentions = spellings[i % 5](year), spellings[(i + 1) % 5](mentions)
            respelled.append(",".join([paper, field, year, mentions]))
        pubs = tmp_path / "publications.csv"
        pubs.write_text("\n".join(respelled) + "\n", encoding="utf-8")
        args = ("--membership", str(MEMBERSHIP_CSV), "--indicators", "mhq", "--format", "json")
        result = run_cli("compute", "--publications", str(pubs), *args)
        plain = run_cli("compute", "--publications", str(PUBLICATIONS_CSV), *args)
        assert result.returncode == 0, result.stderr
        doc, plain_doc = json.loads(result.stdout), json.loads(plain.stdout)
        assert doc["groups"] == plain_doc["groups"]
        assert doc["audit"]["publications"] == plain_doc["audit"]["publications"]

    def test_table_without_result_rows(self, tmp_path):
        # With no groups only the world row is reported, and it has no mhq_prime.
        members = tmp_path / "membership.csv"
        members.write_text("paper_id,group_id\n")
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(members),
            "--indicators", "mhq_prime",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("population  indicator    value")
        assert "note: mhq_prime is undefined for the world row" in result.stdout

    @pytest.mark.parametrize("which", ["publications", "membership", "spec"])
    def test_non_utf8_input_exits_2(self, tmp_path, which):
        path = tmp_path / f"{which}.bad"
        if which == "spec":
            path.write_bytes(b'{"seed": 1\xff}')
            args = ("validity", "--spec", str(path))
        else:
            pubs, members = PUBLICATIONS_CSV, MEMBERSHIP_CSV
            if which == "publications":
                path.write_bytes(b"paper_id,field_id,year,mentions\np1,bio\xe9,2010,1\n")
                pubs = path
            else:
                path.write_bytes(b"paper_id,group_id\np1,bio\xe9\n")
                members = path
            args = (
                "compute", "--publications", str(pubs), "--membership", str(members),
                "--indicators", "mhq",
            )
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr.startswith(f"ERROR: cannot read {which}: 'utf-8' codec can't decode")
        assert result.stderr.count("\n") == 1

    def test_unknown_indicator_exits_2(self):
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "h_index",
        )
        assert result.returncode == 2
        assert result.stderr.startswith("ERROR:")
        assert "\n" not in result.stderr.rstrip("\n")

    def test_missing_file_exits_2(self, tmp_path):
        result = run_cli(
            "compute",
            "--publications", str(tmp_path / "missing.csv"),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "mhq",
        )
        assert result.returncode == 2
        assert result.stderr.startswith("ERROR:")

    def test_degenerate_exits_3(self):
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "mhq",
            "--min-stratum-papers", "100000",
        )
        assert result.returncode == 3
        assert result.stderr.startswith("ERROR:")

    def _compute_exit_2(self, tmp_path, rows, *extra):
        pubs = tmp_path / "publications.csv"
        members = tmp_path / "membership.csv"
        pubs.write_text("paper_id,field_id,year,mentions\n" + "".join(rows))
        members.write_text("paper_id,group_id\np1,g\n")
        result = run_cli(
            "compute",
            "--publications", str(pubs),
            "--membership", str(members),
            "--indicators", "mhq",
            "--min-stratum-papers", "0",
            *extra,
        )
        assert result.returncode == 2
        assert result.stderr == (
            "ERROR: paper 'p1' assigned to stratum bio/2010 more than once\n"
        )

    def test_duplicate_row_exits_2(self, tmp_path):
        rows = ["p1,bio,2010,1\n", "p2,bio,2010,0\n", "p1,bio,2010,0\n"]
        self._compute_exit_2(tmp_path, rows)

    def test_collapse_years_rejects_paper_in_two_years(self, tmp_path):
        # Merged into one stratum, p1 would count twice there.
        rows = ["p1,bio,2010,1\n", "p2,bio,2010,0\n", "p1,bio,2011,0\n"]
        self._compute_exit_2(tmp_path, rows, "--collapse-years")

    @pytest.mark.parametrize("which", ["publications", "membership"])
    def test_field_over_csv_size_limit_exits_2(self, tmp_path, which):
        # The quote sends publications through the csv module; a plain
        # membership file with a field past the csv module's limit goes
        # there too.
        long_id = "p" * 140_000
        pubs, members = tmp_path / "publications.csv", tmp_path / "membership.csv"
        pubs.write_text(
            'paper_id,field_id,year,mentions\n"p1",bio,2010,1\n'
            + (f"{long_id},bio,2010,0\n" if which == "publications" else "")
        )
        members.write_text(
            "paper_id,group_id\np1,g\n"
            + (f"{long_id},g\n" if which == "membership" else "")
        )
        result = run_cli(
            "compute",
            "--publications", str(pubs),
            "--membership", str(members),
            "--indicators", "mhq",
        )
        assert result.returncode == 2
        assert result.stderr == (
            "ERROR: line 3: field larger than field limit (131072)\n"
        )

    def test_no_subcommand_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_synth_seed_override_obeys_spec_seed_rule(self, tmp_path, seed):
        out = tmp_path / "out"
        result = run_cli(
            "synth", "--spec", str(COVERAGE_SPEC), "--seed", str(seed), "--out", str(out)
        )
        assert result.returncode == 2
        assert result.stderr == "ERROR: seed must fit in 64 unsigned bits\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compute", "synth"])
    def test_failed_output_write_exits_2(self, tmp_path, command):
        if command == "compute":
            message = "cannot write output: "
            args = (
                "compute",
                "--publications", str(PUBLICATIONS_CSV),
                "--membership", str(MEMBERSHIP_CSV),
                "--indicators", "mhq",
                "--output", str(tmp_path / "missing" / "report.txt"),
            )
        else:
            message = "cannot write synthetic data: "
            (tmp_path / "file").write_text("")
            args = ("synth", "--spec", str(COVERAGE_SPEC), "--out", str(tmp_path / "file"))
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr.startswith(f"ERROR: {message}")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["coverage", "synth"])
    def test_spec_year_outside_range_exits_2_naming_stratum(self, tmp_path, command):
        spec = tmp_path / "spec.json"
        stratum = {"field_id": "f0", "year": 1850, "world_size": 10, "mention_probability": 0.2}
        spec.write_text(json.dumps({"seed": 1, "strata": [stratum], "groups": []}))
        extra = ["--reps", "100"] if command == "coverage" else ["--out", str(tmp_path / "out")]
        result = run_cli(command, "--spec", str(spec), *extra)
        assert result.returncode == 2
        assert result.stderr == "ERROR: stratum f0/1850: year 1850 outside [1900, 2100]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["coverage", "synth", "validity"])
    @pytest.mark.parametrize(
        "spec_doc, message",
        [
            (
                {"seed": 1, "strata": [{"field_id": "f0", "world_size": 10, "mention_probability": 0.2}]},
                "spec stratum 0 is missing key 'year'",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": "g", "sizes": 2}]},
                "spec group 0 is missing key 'theta'",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "mention_probability": "high"}]},
                "spec stratum 0: mention_probability must be a number, got 'high'",
            ),
            ([1], "spec must be an object, got [1]"),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "field_id": ""}]},
                "spec stratum 0: field_id must be non-empty",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "field_id": "bio,chem"}]},
                "stratum 'bio,chem/2000': field_id holds ',', '\"', '\\r' or '\\n'",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "field_id": "bio\nchem"}]},
                "stratum 'bio\\nchem/2000': field_id holds ',', '\"', '\\r' or '\\n'",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": "g,1", "sizes": 2, "theta": 2.0}]},
                "group label 'g,1' is empty, reserved, or holds ':', ',', '\"', '\\r' or '\\n'",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": 'g"1', "sizes": 2, "theta": 2.0}]},
                "group label 'g\"1' is empty, reserved, or holds ':', ',', '\"', '\\r' or '\\n'",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "field_id": None}]},
                "spec stratum 0: field_id must be a string, got None",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": 7, "sizes": 2, "theta": 2.0}]},
                "spec group 0: label must be a string, got 7",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "mention_probability": "0.5"}]},
                "spec stratum 0: mention_probability must be a number, got '0.5'",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": "g", "sizes": 2, "theta": True}]},
                "spec group 0: theta must be a number, got True",
            ),
            (
                {**MALFORMED_BASE, "strata": [{**MALFORMED_STRATUM, "field_id": "\ud800"}]},
                "stratum '\\ud800/2000': field_id does not encode as UTF-8",
            ),
            (
                {**MALFORMED_BASE, "groups": [{"label": "g\udc80", "sizes": 2, "theta": 2.0}]},
                "group label 'g\\udc80' does not encode as UTF-8",
            ),
        ],
        ids=[
            "stratum-key", "group-key", "probability", "not-object", "field-empty",
            "field-comma", "field-newline", "label-comma", "label-quote", "field-null",
            "label-int", "probability-string", "theta-bool", "field-surrogate",
            "label-surrogate",
        ],
    )
    def test_malformed_spec_exits_2_naming_entry(self, tmp_path, command, spec_doc, message):
        # Ids that the CSV files would have to quote, or that are not UTF-8,
        # are refused, so `synth` never writes files that `compute` rejects.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        extra = {
            "coverage": ["--reps", "100"],
            "synth": ["--out", str(tmp_path / "out")],
            "validity": [],
        }[command]
        result = run_cli(command, "--spec", str(spec), *extra)
        assert result.returncode == 2
        assert result.stderr == f"ERROR: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_world_size_beyond_int64_exits_2(self, tmp_path):
        # Only through `coverage`: without the bound, `synth` and `validity`
        # would try to draw 10^20 papers.
        spec = tmp_path / "spec.json"
        stratum = {**MALFORMED_STRATUM, "world_size": 10**20}
        spec.write_text(json.dumps({**MALFORMED_BASE, "strata": [stratum]}))
        result = run_cli("coverage", "--spec", str(spec), "--reps", "100")
        assert result.returncode == 2
        assert result.stderr == "ERROR: stratum f0/2000: world_size must be less than 2^63\n"

    def test_info_log_has_ingest_stage_lines(self, tmp_path):
        crlf = tmp_path / "publications.csv"
        crlf.write_bytes(PUBLICATIONS_CSV.read_bytes().replace(b"\n", b"\r\n"))
        for publications, reader in [
            (PUBLICATIONS_CSV, "fast"),
            (crlf, "csv (quote or carriage return)"),
        ]:
            args = (
                "compute",
                "--publications", str(publications),
                "--membership", str(MEMBERSHIP_CSV),
                "--indicators", "emnpc,mhq",
                "--format", "json",
            )
            quiet = run_cli(*args)
            logged = run_cli(*args, env_extra={"ZINORM_LOG": "info"})
            out = tmp_path / "report.json"
            logged_to_file = run_cli(
                *args, "--output", str(out), env_extra={"ZINORM_LOG": "info"}
            )
            assert quiet.returncode == logged.returncode == 0, logged.stderr
            assert logged_to_file.returncode == 0, logged_to_file.stderr
            assert logged.stdout == quiet.stdout
            assert (logged_to_file.stdout, out.read_text(encoding="utf-8")) == ("", quiet.stdout)
            stages = [
                line.split(": ", 1)[1]
                for line in logged.stderr.splitlines()
                if line.startswith("INFO ")
            ]
            assert [stage.split()[0] for stage in stages] == [
                "report.parse_publications",
                "report.parse_membership",
                "profiles.build_profiles",
            ]
            assert re.fullmatch(rf"\S+ \d+\.\d{{3}} s, 158 rows, reader {re.escape(reader)}", stages[0])
            assert re.fullmatch(r"\S+ \d+\.\d{3} s, \d+ rows, reader fast", stages[1])
            assert re.fullmatch(r"\S+ \d+\.\d{3} s, 158 rows in, \d+ strata out", stages[2])

    def test_info_log_has_coverage_stage_line(self):
        args = ("coverage", "--spec", str(COVERAGE_SPEC), "--reps", "300")
        quiet = run_cli(*args)
        logged = run_cli(*args, env_extra={"ZINORM_LOG": "info"})
        assert quiet.returncode == logged.returncode == 0, logged.stderr
        assert logged.stdout == quiet.stdout
        threads = min(os.cpu_count() or 1, 2)
        assert re.fullmatch(
            r"INFO zinorm\.synth: synth\.coverage_experiment \d+\.\d{3} s, "
            rf"300 replications, 2 blocks of 200 rows, {threads} threads\n",
            logged.stderr,
        )

    def test_log_env_var(self):
        result = run_cli(
            "compute",
            "--publications", str(PUBLICATIONS_CSV),
            "--membership", str(MEMBERSHIP_CSV),
            "--indicators", "mhq",
            "--format", "json",
            env_extra={"ZINORM_LOG": "debug"},
        )
        assert result.returncode == 0
