from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecoplan.aging import RemapPlan, SlackCurve
from ecoplan.carbon import CarbonParams, SweepSpec, sweep
from ecoplan.carbon import compare as compare_carbon
from ecoplan.model import Dataset, IpProfile, ScoreWeights, ValidationError
from ecoplan.partition import FabricBudget, plan_greedy
from ecoplan.report import (
    _csv,
    _markdown,
    _Table,
    aging_report_files,
    carbon_report_files,
    check_formats,
    fmt,
    partition_report_files,
    platform_comparison,
    render_json,
    round4,
    score_report_files,
    write_outputs,
)
from ecoplan.scoring import score_dataset


def table_of(headers, rows) -> _Table:
    """The report table of ``rows``, built by column as the reports build theirs."""
    return _Table(headers, [list(column) for column in zip(*rows)] or [[] for _ in headers])


def ip_with_metrics(ip_id: str, power: float, slack: float, area_mm2: float) -> IpProfile:
    metrics = {"ecologic": power, "fpga": power}
    return IpProfile(
        id=ip_id,
        name=ip_id,
        loc_changed=1,
        confidentiality_risk=0.5,
        io_control_nets=1,
        internal_nets_and_state=10,
        logic_mapped_to_efpga=1.0,
        total_logic=2.0,
        f_max_asic=2.0,
        f_max_efpga=1.5,
        f_max_fpga=1.5,
        area=100.0,
        power_mw=dict(metrics),
        slack_ns={"ecologic": slack, "fpga": slack},
        area_mm2={"ecologic": area_mm2, "fpga": area_mm2},
    )


class TestPlatformComparison:
    def test_identical_metrics_give_unit_ratios_and_zero_deltas(self):
        data = Dataset(
            ips=(ip_with_metrics("a", 10.0, 5.0, 100.0), ip_with_metrics("b", 20.0, 6.0, 50.0)),
            area_unit="gate_eq",
        )
        agg = platform_comparison(data).aggregates
        assert agg["power_mw"]["ratio"] == 1.0
        assert agg["frequency_ghz"]["ratio"] == 1.0
        assert agg["slack_ns"]["delta"] == 0.0
        assert agg["area_mm2"]["delta"] == 0.0

    def test_missing_metric_names_ip_and_platform(self, six_ip_dataset):
        bare = IpProfile(
            id="bare", name="bare", loc_changed=0, confidentiality_risk=0.0,
            io_control_nets=0, internal_nets_and_state=1,
            logic_mapped_to_efpga=0.0, total_logic=1.0,
            f_max_asic=1.0, f_max_efpga=1.0, area=1.0,
        )
        data = Dataset(ips=(six_ip_dataset.ips[0], bare), area_unit="gate_eq")
        with pytest.raises(ValidationError, match="'bare'.*power_mw.*'ecologic'"):
            platform_comparison(data)

    def test_unknown_platform_rejected(self, six_ip_dataset):
        with pytest.raises(ValidationError, match="unknown platform"):
            platform_comparison(six_ip_dataset, ours="gpu")


class TestFormatting:
    def test_round4(self):
        assert round4(480.7692307692308) == 480.8
        assert round4(0.9802372523152534) == 0.9802
        assert round4(46600.0) == 46600.0

    def test_fmt_four_significant_digits(self):
        assert fmt(480.7692307692308) == "480.8"
        assert fmt(16.0) == "16"
        assert fmt(0.052681) == "0.05268"
        assert fmt(1000000) == "1000000"

    def test_csv_and_markdown_renderers(self):
        headers = ("a", "b")
        rows = [[1.23456789, "x"]]
        assert _csv(table_of(headers, rows)) == "a,b\n1.235,x\n"
        table = _markdown(table_of(headers, rows))
        assert table.splitlines()[2] == "| 1.235 | x |"
        # a markdown cell's "|" is escaped and each CR LF, CR or LF becomes <br>
        table = table_of(("a|b", "c"), [["x|y", "1\r\n2\r3\n4"], ["\\|", "plain"]])
        assert _markdown(table) == (
            "| a\\|b | c |\n|---|---|\n| x\\|y | 1<br>2<br>3<br>4 |\n| \\\\| | plain |\n"
        )
        assert _csv(table) == 'a|b,c\nx|y,"1\r\n2\r3\n4"\n\\|,plain\n'

    def test_check_formats(self):
        assert check_formats(("markdown", "json"), "formats") == ("json", "markdown")
        with pytest.raises(ValidationError, match="^f: at least one output format is required$"):
            check_formats((), "f")
        with pytest.raises(ValidationError, match="^--formats: unknown format[(]s[)]: pdf "):
            check_formats(("pdf",), "--formats")


ODD_IDS = ("a|b", "line\nbreak", "cr\ronly", "crlf\r\nend", "plain")


def unescaped_separators(line: str) -> int:
    return len(re.findall(r"(?<!\\)\|", line))


def assert_table_shapes(markdown: str) -> None:
    """Every line of each pipe table has its header line's count of unescaped separators."""
    assert "\r" not in markdown
    for block in markdown.split("\n\n"):
        lines = block.strip("\n").split("\n")
        if lines[0].startswith("| "):
            assert lines[1].startswith("|---")
            width = unescaped_separators(lines[0])
            assert [unescaped_separators(line) for line in lines] == [width] * len(lines), block


class TestMarkdownCells:
    """Ids, designs, blocks, regions and curve names may hold ``|`` and line breaks."""

    def odd_dataset(self) -> Dataset:
        ips = [replace(ip_with_metrics(ip_id, 10.0, 5.0, 100.0), area=float(k + 1))
               for k, ip_id in enumerate(ODD_IDS)]
        return Dataset(ips=tuple(ips), area_unit="gate_eq")

    def test_score_and_partition_tables_keep_their_shape(self):
        dataset = self.odd_dataset()
        cards = score_dataset(dataset, ScoreWeights.default())
        score_md = score_report_files(cards, ["markdown"])["score.md"]
        plan = plan_greedy(cards, dataset, FabricBudget(6.0))
        partition_md = partition_report_files(plan, FabricBudget(6.0), ["markdown"])
        for markdown in (score_md, partition_md["partition.md"]):
            assert_table_shapes(markdown)
            assert "a\\|b" in markdown and "line<br>break" in markdown
            assert "cr<br>only" in markdown and "crlf<br>end" in markdown

    def test_carbon_and_aging_tables_keep_their_shape(self):
        spec = SweepSpec((1.0,), (1000,), 1.0)
        design = "d|1\n| fake | row |"
        reports = [sweep(spec, CarbonParams(e_use_per_hour_kwh=rate), design, platform)
                   for platform, rate in (("ecologic", 1e-6), ("fpga", 2e-6))]
        comparisons = {design: compare_carbon(*reports)}
        carbon = carbon_report_files(reports, comparisons, 0.5, [design], ["markdown"])
        curves = [SlackCurve("p|q\n", ((25.0, 1.0), (140.0, 2.0)))]
        plan = RemapPlan({"b|1": "r\n2", "b2": "r|3"}, 1.0, 2.0)
        aging = aging_report_files(curves, {"p|q\n": 1.5}, 60.0, plan, ["markdown"])
        for markdown in (carbon["carbon.md"], aging["aging.md"]):
            assert_table_shapes(markdown)
        assert "| p\\|q<br> | 60 | 1.5 |" in aging["aging.md"]
        assert carbon["carbon.md"].endswith(
            "\n\nmean reduction over d\\|1<br>\\| fake \\| row \\|: 0.5\n")


class TestWriteOutputs:
    def test_writes_and_cleans_staging(self, tmp_path):
        out = tmp_path / "reports"
        written = write_outputs(out, {"a.txt": "hello\n", "b.txt": "world\n"})
        assert sorted(p.name for p in out.iterdir()) == ["a.txt", "b.txt"]
        assert all(p.exists() for p in written)
        assert (out / "a.txt").read_text() == "hello\n"

    def test_another_runs_staging_files_are_left_alone(self, tmp_path):
        # a run writing into the same directory, and a stale name this process could pick
        foreign = tmp_path / ".score.json.tmp"
        foreign.write_text("another run\n")
        stale = tmp_path / f".score.json.{os.getpid()}-0.tmp"
        stale.write_text("stale\n")
        write_outputs(tmp_path, {"score.json": "ours\n"})
        assert (tmp_path / "score.json").read_text() == "ours\n"
        assert foreign.read_text() == "another run\n"
        assert stale.read_text() == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["score.json", foreign.name, stale.name]
        )

    def test_failed_stage_write_leaves_no_file(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_outputs(tmp_path, {"a.csv": "fine\n", "b.csv": "lone \ud800 surrogate\n"})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_removes_the_directories_it_created(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            write_outputs(tmp_path / "new" / "sub", {"a.csv": "lone \ud800 surrogate\n"})
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_a_directory_that_existed(self, tmp_path):
        (tmp_path / "old.csv").write_text("kept\n")
        with pytest.raises(UnicodeEncodeError):
            write_outputs(tmp_path / "new", {"a.csv": "lone \ud800 surrogate\n"})
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]
        assert (tmp_path / "old.csv").read_text() == "kept\n"


# --- the encoder against the stdlib dump -----------------------------------------


def jsonable(value):
    """Every float rounded to report precision, tuples as lists."""
    if isinstance(value, float):
        return round4(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def stdlib_json(payload) -> str:
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


def stdlib_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def outcome(render, *args):
    """``render(*args)``, or the type and message of the exception it raised."""
    try:
        return render(*args)
    except Exception as error:  # noqa: BLE001 - compared with the other renderer's
        return type(error), str(error)


def md_cell(text: str) -> str:
    """A pipe-table cell: ``|`` escaped, each CR LF, CR or LF line break as ``<br>``."""
    return re.sub(r"\r\n|\r|\n", "<br>", text.replace("|", r"\|"))


def stdlib_markdown(headers, rows) -> str:
    lines = ["| " + " | ".join(map(md_cell, headers)) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(md_cell(fmt(cell)) for cell in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


awkward_text = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\{}[],:%|\n\r\t\x00\u00e9\u2028\U0001f600')),
    max_size=8,
)
edge_floats = st.sampled_from([
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 123456789012345678.0, 1.5e300,
    float("nan"), float("inf"), float("-inf"), 0.00012345, 99995.0,
])
floats = st.one_of(edge_floats, st.floats())
ints = st.one_of(st.integers(), st.integers(min_value=-(10**40), max_value=10**40))
scalars = st.one_of(awkward_text, floats, ints, st.booleans(), st.none())
remainders = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(awkward_text, inner, max_size=3),
    ),
    max_leaves=8,
)
# a column holds one kind of value (the fast paths) or any mix of them
column_kinds = st.sampled_from([floats, awkward_text, ints, st.booleans(), st.none(), scalars])


@st.composite
def record_tables(draw):
    headers = draw(st.lists(awkward_text, min_size=1, max_size=5, unique=True))
    kinds = [draw(column_kinds) for _ in headers]
    size = draw(st.integers(min_value=0, max_value=6))
    rows = [[draw(kind) for kind in kinds] for _ in range(size)]
    return headers, rows


class TestEncoderMatchesStdlib:
    @given(table=record_tables(), remainder=remainders)
    def test_records_and_remainder_encode_as_the_stdlib_dump(self, table, remainder):
        headers, rows = table
        records = [dict(zip(headers, row)) for row in rows]
        got = render_json({"rows": table_of(headers, rows), "rest": remainder})
        assert got == stdlib_json({"rows": records, "rest": remainder})

    @given(table=record_tables(), cut=st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_csv_and_markdown_cut_format_each_cell_as_fmt(self, table, cut):
        headers, rows = table
        lo, hi = sorted(cut)
        shared = table_of(headers, rows)
        # Python 3.10's csv writer rejects a NUL; _csv must raise what it raises
        assert outcome(_csv, shared) == outcome(stdlib_csv, headers, rows)
        assert _markdown(shared[lo:hi]) == stdlib_markdown(
            headers[lo:hi], [row[lo:hi] for row in rows]
        )

    @pytest.mark.parametrize("special", [None, ",", '"', "|", "\n"])
    def test_large_table_matches_the_stdlib(self, special):
        # sizes the hypothesis tables never reach: exponent forms, non-finite
        # floats, heavily repeated strings and floats, and a cell to quote
        rng = random.Random(20261018)
        headers = ("rank", "design", "platform", "value", "edge", "scenario")
        designs = [f"d{k}" for k in range(40)]
        # the largest double rounds to 1.798e+308, which reads back as inf
        edges = [
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 99995.0, 1.7976931348623157e308
        ]
        rows = []
        for rank in range(1, 3001):
            value = rng.choice((1, -1)) * 10 ** rng.uniform(-6, 7)
            rows.append([
                rank, rng.choice(designs), rng.choice(("ecologic", "fpga")), value,
                rng.choice(edges) if rank % 7 == 0 else value * 3, float(rng.randint(1, 40)),
            ])
        if special:
            rows[1500][1] = f"d{special}x"
        table = table_of(headers, rows)
        records = [dict(zip(headers, row)) for row in rows]
        assert render_json({"rows": table}) == stdlib_json({"rows": records})
        assert _csv(table) == stdlib_csv(headers, rows)
        assert _markdown(table) == stdlib_markdown(headers, rows)

    def test_nested_table_and_empty_containers(self):
        payload = {"a": [{}], "b": [], "c": {}, "d": (), "e": table_of(("y",), [])}
        expected = {"a": [{}], "b": [], "c": {}, "d": [], "e": []}
        assert render_json(payload) == stdlib_json(expected)
        # a table is a value of the report object only, never nested deeper
        with pytest.raises(TypeError):
            render_json({"a": [{"t": table_of(("y", "x"), [[1.23456, "q"]])}]})

    def test_unserializable_value_raises_type_error(self):
        with pytest.raises(TypeError):
            render_json({"a": {1, 2}})

    @pytest.mark.parametrize("payload", [{"a": {1: "x"}}, {"t": table_of((1,), [["x"]])}],
                             ids=["dict-key", "table-header"])
    def test_int_key_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            render_json(payload)
