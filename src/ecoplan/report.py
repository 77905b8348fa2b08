"""Report rendering and emission: JSON, CSV, and markdown, plus the
cross-platform metric comparison.

Each ``*_report_files`` function only declares its report: a file stem (also
the JSON ``"report"`` value), the JSON payload, one CSV table, and the
markdown parts in order (tables and literal text). The single renderer
``_render`` writes each requested format.

Report files are deterministic: keys are sorted, row order is fixed by the
pipeline, no timestamps are embedded, and every floating-point value is
printed with 4 significant digits (internal math stays full precision).
Writes are staged through temp files, under names that no other run can be
using, so a failing command never leaves a partial report behind.

A declared table (``_Table``) holds its columns and the kind (the one type
of its values) and ``fmt`` text of each, made once when the table is built.
Float text is ``{:.4g}``: it serves CSV and markdown, and a float's JSON
literal is the repr of its text read back, which is the repr of ``round4``.
A str column is its own text. A markdown table cut from the CSV table
(``table[1:8]``) shares that text. A table in a JSON payload stands for its
list of records, one object per row keyed by the headers: the array is one
join of a flat list filled a column at a time.
A CSV table whose cells need no quoting is its rows joined by commas, which
is what the stdlib ``csv`` writer writes for it; any other table is written
by that writer, imported only then, so quoting follows the running
interpreter's ``csv`` module.

``_encode`` is the only JSON writer. For a payload keyed by strings, its
output is byte for byte what ``json.dumps(payload, indent=2, sort_keys=True)``
gives once every float is rounded to report precision; a non-string key
raises ``TypeError``. It does not call the stdlib: any ``indent`` sends
CPython's ``json`` through its pure-Python encoder, which for the large
reports meant a dict per row, a rounded copy of the whole payload and most of
the render time. The tests compare ``_encode`` with that stdlib dump.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from itertools import count, takewhile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from .model import PLATFORMS, Dataset, ValidationError

if TYPE_CHECKING:  # annotations only; each subcommand imports the layers it runs
    from .aging import RemapPlan, SlackCurve
    from .carbon import CarbonComparison, CarbonReport
    from .partition import FabricBudget, PartitionPlan
    from .scoring import ScoreCard

FORMATS = ("json", "csv", "markdown")
_EXTENSIONS = {"json": "json", "csv": "csv", "markdown": "md"}

# JSON spellings of the non-finite floats, keyed by their repr
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_FORMAT4 = "{:.4g}".format


def round4(value: float) -> float:
    """Round to 4 significant digits (report precision)."""
    return float(f"{value:.4g}")


def fmt(value: Any) -> str:
    """Format one report value: floats at 4 significant digits."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class _Table:
    """Headers, columns, and the kind and ``fmt`` text of every column, made when built.

    ``table[start:stop]`` is the table over slices of the same lists, with the
    same rows. In a JSON payload a table stands for its list of records.
    """

    def __init__(self, headers: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
        self.headers, self.columns, self.size = tuple(headers), columns, len(columns[0])
        self.kinds = list(map(_kind, columns))
        self.text = list(map(_text_column, columns, self.kinds))

    def __getitem__(self, cut: slice) -> _Table:
        table = _Table.__new__(_Table)
        table.headers, table.columns, table.size = self.headers[cut], self.columns[cut], self.size
        table.kinds, table.text = self.kinds[cut], self.text[cut]
        return table

    def text_rows(self) -> Iterator[tuple[str, ...]]:
        return zip(*self.text) if self.text else iter([()] * self.size)


def _kind(values: Sequence[Any]) -> type | None:
    """The one type of every value of a column; None for a mixed or empty column."""
    kinds = set(map(type, values))
    return kinds.pop() if len(kinds) == 1 else None


def _text_column(values: Sequence[Any], kind: type | None) -> Sequence[str]:
    """``fmt`` of every value of a column of ``kind``; an all-str column is its
    own text, and an all-float column skips the per-cell call."""
    if kind is float:
        return list(map(_FORMAT4, values))
    if kind is str:
        return values
    return list(map(fmt, values))


def _json_column(
    values: Sequence[Any], kind: type | None, text: Sequence[str], depth: int
) -> Sequence[str]:
    """The JSON literal of every value of a column of ``kind`` whose ``fmt`` text is ``text``.

    A float's literal is the repr of its text read back, which is the repr of
    ``round4``: each distinct text is read back at most once. An int's literal
    is its text. A str column encodes each distinct value once."""
    if kind is float:
        distinct = set(text)
        # Fixed-point text with a point is already the repr of its double: it
        # has at most 4 significant digits and lies in [1e-4, 1e4), where no
        # shorter decimal names the same double.
        literals = {t: t for t in distinct if "." in t and "e" not in t}
        rest = distinct.difference(literals)
        reprs = map(float.__repr__, map(float, rest))  # "1.798e+308" reads back as inf
        literals.update(zip(rest, [_NON_FINITE.get(r, r) for r in reprs]))
        return list(map(literals.__getitem__, text))
    if kind is str:
        distinct = set(values)
        literals = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
        return list(map(literals.__getitem__, values))
    if kind is int:
        return text
    return [_encode(value, depth) for value in values]


def _records(table: _Table, depth: int) -> str:
    """``table`` as a JSON array ``depth`` levels deep of one object per row.

    The array is one join of a flat list that holds, row after row, the cells
    in key order and before each the text that leads up to it: brackets,
    commas, indentation and the key. That list is filled a column at a time.
    """
    if not table.size:
        return "[]"
    outer = "\n" + "  " * (depth + 1)
    inner = outer + "  "
    fields = sorted(dict(zip(table.headers, count())).items())  # the last of equal headers
    keys = [encode_basestring_ascii(header) + ": " for header, _ in fields]
    leads = ["," + inner + key for key in keys]
    leads[0] = outer + "}," + outer + "{" + inner + keys[0]  # closes the row before
    width, size = 2 * len(fields), table.size
    flat: list[str] = [""] * (width * size)
    for j, (lead, (_, i)) in enumerate(zip(leads, fields)):
        flat[2 * j::width] = [lead] * size
        flat[2 * j + 1::width] = _json_column(table.columns[i], table.kinds[i], table.text[i],
                                              depth + 2)
    flat[0] = "[" + outer + "{" + inner + keys[0]
    return "".join(flat) + outer + "}" + outer[:-2] + "]"


def _encode(value: Any, depth: int) -> str:
    """``value`` spelled as ``json.dumps(..., indent=2, sort_keys=True)`` spells
    it ``depth`` levels deep, with every float value rounded by ``round4``; a
    dict key or table header that is not a string raises ``TypeError``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(round4(value))
        return _NON_FINITE.get(text, text)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_encode(v, depth + 1)}"
                 for k, v in sorted(value.items()))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, _Table):
        return _records(value, depth)
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    if _kind(value) is str:
        items = map(encode_basestring_ascii, value)
    else:
        items = (_encode(item, depth + 1) for item in value)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def render_json(payload: Any) -> str:
    return _encode(payload, 0) + "\n"


def _csv(table: _Table) -> str:
    """The table as ``csv.writer`` writes it with ``lineterminator="\\n"``.

    A table of two or more columns whose text holds none of the characters
    that the writer quotes (or, before Python 3.11, rejects) is its rows joined
    as they are; the count of separators shows whether a cell held one.
    """
    lines = [",".join(table.headers), *map(",".join, table.text_rows())]
    text = "\n".join(lines) + "\n"
    width = len(table.headers)
    if (
        width >= 2
        and text.count(",") == len(lines) * (width - 1)
        and text.count("\n") == len(lines)
        and not any(char in text for char in '"\r\0')
    ):
        return text
    import csv  # only a cell that needs quoting, or a one-column table, gets here

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    writer.writerows(table.text_rows())
    return buf.getvalue()


def _markdown(table: _Table) -> str:
    head = "| " + " | ".join(table.headers) + " |\n|" + "|".join("---" for _ in table.headers)
    if not table.size:
        return head + "|\n"
    return head + "|\n| " + " |\n| ".join(map(" | ".join, table.text_rows())) + " |\n"


def check_formats(formats: Sequence[str]) -> tuple[str, ...]:
    if not formats:
        raise ValidationError("at least one output format is required")
    unknown = set(formats) - set(FORMATS)
    if unknown:
        raise ValidationError(
            f"unknown format(s): {', '.join(sorted(unknown))} (choose from {FORMATS})"
        )
    # preserve canonical order, drop duplicates
    return tuple(f for f in FORMATS if f in set(formats))


def output_name(stem: str, format_name: str) -> str:
    return f"{stem}.{_EXTENSIONS[format_name]}"


def _render(
    stem: str, formats: Sequence[str], payload: Any, table: _Table, markdown: list[_Table | str]
) -> dict[str, str]:
    """Render one declared report: a file per requested format, in FORMATS order."""
    renderers = {
        "json": lambda: render_json({"report": stem, **payload}),
        "csv": lambda: _csv(table),
        "markdown": lambda: "".join(
            part if isinstance(part, str) else _markdown(part) for part in markdown
        ),
    }
    return {output_name(stem, f): renderers[f]() for f in FORMATS if f in formats}


def write_outputs(out_dir: str | Path, files: Mapping[str, str]) -> list[Path]:
    """Atomically materialize the rendered files in ``out_dir``.

    Content is staged into temp files first and renamed only after every
    stage write succeeded, so an error leaves no partial outputs and no
    directory this call made. Each call stages under names of its own, so
    runs sharing ``out_dir`` never touch each other's temp files.
    """
    out = Path(out_dir)
    new_dirs = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))
    staged: list[tuple[Path, Path]] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            for attempt in count():  # O_EXCL: a name no other writer is using
                tmp = out / f".{name}.{os.getpid()}-{attempt}.tmp"
                try:
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    pass
            staged.append((tmp, out / name))
            with open(fd, "w", encoding="utf-8") as stream:
                stream.write(text)
    except BaseException:  # an encoding error too; the error is raised again
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in new_dirs:  # deepest first; one that is no longer empty stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    written = []
    for tmp, final in staged:
        os.replace(tmp, final)
        written.append(final)
    return written


# --- score report -----------------------------------------------------------

_SCORE_FIELDS = (  # of a ScoreCard, in column order
    "ip_id", "adaptability", "piracy_threat", "performance_tolerance", "resource_fit",
    "composite", "normalized", "exposure", "redaction_ratio",
)
_SCORE_HEADERS = ("rank", "design", *_SCORE_FIELDS[1:])


def score_report_files(cards: Sequence[ScoreCard], formats: Sequence[str]) -> dict[str, str]:
    columns = [list(range(1, len(cards) + 1))]
    columns += ([getattr(card, name) for card in cards] for name in _SCORE_FIELDS)
    table = _Table(_SCORE_HEADERS, columns)
    return _render("score", formats, {"cards": table}, table, [table[1:8]])


# --- partition report --------------------------------------------------------


def partition_report_files(
    plan: PartitionPlan, budget: FabricBudget, formats: Sequence[str]
) -> dict[str, str]:
    efpga, asic = sorted(plan.efpga_ips), sorted(plan.asic_ips)
    summary = {
        "method": plan.method,
        "capacity": budget.capacity,
        "used_area": plan.used_area,
        "total_score": plan.total_score,
        "efpga_ips": efpga,
        "asic_ips": asic,
    }
    placements = ["efpga"] * len(efpga) + ["asic"] * len(asic)
    table = _Table(("placement", "design"), [placements, efpga + asic])
    header = (
        f"method: {plan.method}, capacity: {fmt(float(budget.capacity))}, "
        f"used: {fmt(plan.used_area)}, total score: {fmt(plan.total_score)}\n\n"
    )
    return _render("partition", formats, summary, table, [header, table])


# --- carbon report -----------------------------------------------------------

_CARBON_HEADERS = ("design", "platform", "scenario_kind", "scenario_value", "kg_co2")


def _carbon_table(reports: Sequence[CarbonReport]) -> _Table:
    """One row per cell of each report, built by column: the cells of a
    report in the order its sweep gives them."""
    design, platform, kind, value, kg = columns = ([], [], [], [], [])
    for report in reports:
        cells = report.cells
        design += [report.design_id] * len(cells)
        platform += [report.platform] * len(cells)
        kind += [scenario.kind for scenario in cells]
        value += [scenario.value for scenario in cells]
        kg += cells.values()
    return _Table(_CARBON_HEADERS, columns)


def carbon_report_files(
    reports: Sequence[CarbonReport],
    comparisons: Mapping[str, CarbonComparison],
    mean_reduction: float | None,
    reduction_designs: Sequence[str],
    formats: Sequence[str],
) -> dict[str, str]:
    table = _carbon_table(reports)
    designs = sorted(comparisons)
    reductions = [comparisons[design_id].mean_reduction for design_id in designs]
    payload = {
        "cells": table,
        "reductions_vs_fpga": dict(zip(designs, reductions)),
        "mean_reduction": mean_reduction,
        "mean_reduction_designs": list(reduction_designs),
    }
    markdown: list[_Table | str] = [table]
    if designs:
        markdown += ["\n", _Table(("design", "mean_reduction_vs_fpga"), [designs, reductions])]
    if mean_reduction is not None:
        markdown.append(
            f"\nmean reduction over {', '.join(reduction_designs)}: {fmt(mean_reduction)}\n"
        )
    return _render("carbon", formats, payload, table, markdown)


# --- platform comparison -----------------------------------------------------

_COMPARE_METRICS = ("power_mw", "frequency_ghz", "slack_ns", "area_mm2")


@dataclass(frozen=True)
class PlatformComparison:
    """Aggregate platform metrics (means over IPs) and per-IP series.

    Ratios are improvement factors of ``ours`` over ``baseline``: the power
    ratio divides baseline by ours (lower power is better) while the
    frequency ratio divides ours by baseline. Slack and area are reported as
    deltas (ours - baseline).

    ``series`` is four columns, metric, platform, IP id and value: metric by
    metric, ``ours`` then ``baseline``, each IP in dataset order.
    """

    ours: str
    baseline: str
    aggregates: Mapping[str, Mapping[str, float]]
    series: tuple[list[str], list[str], list[str], list[float]]


_FREQUENCY_FIELDS = {"asic": "f_max_asic", "ecologic": "f_max_efpga", "fpga": "f_max_fpga"}


def _metric_column(ips: Sequence[Any], metric: str, platform: str) -> list[float]:
    """The ``metric`` value of every IP on ``platform``, read in one pass."""
    field = _FREQUENCY_FIELDS[platform] if metric == "frequency_ghz" else metric
    values = [getattr(ip, field) for ip in ips]
    if field == metric:  # a per-platform map, which may lack the platform
        values = [None if mapping is None else mapping.get(platform) for mapping in values]
    if None in values:
        ip = ips[values.index(None)]
        raise ValidationError(
            f"IP {ip.id!r} has no {metric} value for platform {platform!r}"
        )
    return list(map(float, values))


def _ratio(metric: str, means: Mapping[str, float], top: str, bottom: str) -> float:
    """``means[top] / means[bottom]``, which must be finite."""
    ratio = means[top] / means[bottom] if means[bottom] else math.inf
    if not math.isfinite(ratio):
        raise ValidationError(
            f"{metric} ratio is not finite: platform {bottom!r} has mean {means[bottom]}"
        )
    return ratio


def platform_comparison(
    dataset: Dataset, ours: str = "ecologic", baseline: str = "fpga"
) -> PlatformComparison:
    """Compare two platforms across power, frequency, slack, and area."""
    for platform in (ours, baseline):
        if platform not in PLATFORMS:
            raise ValidationError(f"unknown platform {platform!r}")
    if ours == baseline:
        raise ValidationError("platforms to compare must differ")

    aggregates: dict[str, dict[str, float]] = {}
    metrics, platforms, ip_ids, values = series = ([], [], [], [])
    ids = [ip.id for ip in dataset.ips]
    for metric in _COMPARE_METRICS:
        per_platform: dict[str, float] = {}
        for platform in (ours, baseline):
            column = _metric_column(dataset.ips, metric, platform)
            try:
                per_platform[platform] = math.fsum(column) / len(column)
            except OverflowError:
                raise ValidationError(
                    f"{metric} values of platform {platform!r} overflow their sum"
                ) from None
            metrics += [metric] * len(ids)
            platforms += [platform] * len(ids)
            ip_ids += ids
            values += column
        entry = {"ours": per_platform[ours], "baseline": per_platform[baseline]}
        if metric == "power_mw":
            entry["ratio"] = _ratio(metric, per_platform, baseline, ours)
        elif metric == "frequency_ghz":
            entry["ratio"] = _ratio(metric, per_platform, ours, baseline)
        else:
            entry["delta"] = per_platform[ours] - per_platform[baseline]
        aggregates[metric] = entry
    return PlatformComparison(ours=ours, baseline=baseline, aggregates=aggregates, series=series)


def compare_report_files(
    comparison: PlatformComparison, formats: Sequence[str]
) -> dict[str, str]:
    entries = [comparison.aggregates[metric] for metric in _COMPARE_METRICS]
    stats = ["ratio" if "ratio" in entry else "delta" for entry in entries]
    aggregates = _Table(
        ("metric", comparison.ours, comparison.baseline, "statistic", "value"),
        [_COMPARE_METRICS, [entry["ours"] for entry in entries],
         [entry["baseline"] for entry in entries], stats,
         [entry[stat] for entry, stat in zip(entries, stats)]],
    )
    series = _Table(("metric", "series", "x", "y"), comparison.series)
    payload = {
        "ours": comparison.ours,
        "baseline": comparison.baseline,
        "aggregates": {k: dict(v) for k, v in comparison.aggregates.items()},
        "series": series,
    }
    return _render("compare", formats, payload, series, [aggregates])


# --- aging report --------------------------------------------------------------


def aging_report_files(
    curves: Sequence[SlackCurve],
    slacks_at_temp: Mapping[str, float],
    temperature_c: float,
    plan: RemapPlan | None,
    formats: Sequence[str],
) -> dict[str, str]:
    platforms = sorted(slacks_at_temp)
    slack_table = _Table(("platform", "temperature_c", "slack_ns"), [
        platforms, [temperature_c] * len(platforms), list(map(slacks_at_temp.get, platforms))
    ])
    payload: dict[str, Any] = {
        "temperature_c": temperature_c,
        "slack_ns": dict(slacks_at_temp),
        "curves": {curve.platform: curve.points for curve in curves},
    }
    markdown: list[_Table | str] = [slack_table]
    if plan is not None:
        payload["remap"] = {
            "assignment": dict(plan.assignment),
            "min_slack_before": plan.min_slack_before,
            "min_slack_after": plan.min_slack_after,
        }
        blocks = sorted(plan.assignment)
        regions = list(map(plan.assignment.get, blocks))
        markdown += ["\n", _Table(("block", "region"), [blocks, regions])]
        markdown.append(f"\nmin slack before: {fmt(plan.min_slack_before)} ns, "
                        f"after: {fmt(plan.min_slack_after)} ns\n")
    return _render("aging", formats, payload, slack_table, markdown)
