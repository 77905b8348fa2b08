"""Report rendering and emission: JSON, CSV, and markdown, plus the
cross-platform metric comparison.

Each ``*_report_files`` function only declares its report: a file stem, the
JSON payload, one CSV table, and the markdown parts in order (tables and
literal text). The single renderer ``_render`` writes each requested format.

Report files are deterministic: keys are sorted, row order is fixed by the
pipeline, no timestamps are embedded, and every floating-point value is
printed with 4 significant digits (internal math stays full precision).
Writes are staged through temp files so a failing command never leaves a
partial report behind.

A declared table (``_Table``) holds its cells by column and converts each
column once per output kind. For CSV and markdown every cell becomes its
``fmt`` text, and a markdown table cut from the CSV table (``table[1:8]``)
reuses those strings. A table placed in a JSON payload stands for its list
of records, one object per row keyed by the headers: the keys are sorted
once into a row template, each column becomes JSON literals in one pass, and
every record is that template filled with its row's literals.

``_encode`` is the only JSON writer. Its output is byte for byte what
``json.dumps(payload, indent=2, sort_keys=True)`` gives once every float is
rounded to report precision, but it does not call the stdlib: any ``indent``
sends CPython's ``json`` through its pure-Python encoder, which for the large
reports meant a dict per row, a rounded copy of the whole payload and most of
the render time. The tests compare ``_encode`` with that stdlib dump.
"""

from __future__ import annotations

import copy
import csv
import io
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from .model import PLATFORMS, Dataset, ValidationError

if TYPE_CHECKING:  # annotations only; each subcommand imports the layers it runs
    from .aging import RemapPlan, SlackCurve
    from .carbon import CarbonComparison, CarbonReport, Scenario
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
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class _Table:
    """Headers and rows of one report table, stored by column.

    ``table[start:stop]`` cuts columns and shares the ``fmt`` text of the
    cells, which each column computes at most once. In a JSON payload a table
    stands for its list of records.
    """

    def __init__(self, headers: Sequence[Any], rows: Sequence[Sequence[Any]]) -> None:
        self.headers = tuple(headers)
        self.size = len(rows)
        self._columns = list(zip(*rows)) or [()] * len(self.headers)
        self._picks = range(len(self.headers))
        self._text: list[Sequence[str] | None] = [None] * len(self.headers)

    def __getitem__(self, cut: slice) -> _Table:
        view = copy.copy(self)
        view.headers, view._picks = self.headers[cut], self._picks[cut]
        return view

    def columns(self) -> list[Sequence[Any]]:
        return [self._columns[i] for i in self._picks]

    def text_rows(self) -> Iterator[tuple[str, ...]]:
        if not self._picks:
            return iter([()] * self.size)
        for i in self._picks:
            if self._text[i] is None:
                self._text[i] = _text_column(self._columns[i])
        return zip(*(self._text[i] for i in self._picks))


def _text_column(values: Sequence[Any]) -> Sequence[str]:
    """``fmt`` of every value; all-float and all-str/int columns skip the per-cell call."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(_FORMAT4, values))
    if kinds <= {str, int}:
        return list(map(str, values))
    return list(map(fmt, values))


def _float_literal(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _key(key: Any) -> str:
    """A dict key as the stdlib encoder writes it (floats are not rounded)."""
    if isinstance(key, float):
        key = _float_literal(key)
    elif key is None or isinstance(key, int):
        key = _encode(key, 0)
    elif not isinstance(key, str):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _json_column(values: Sequence[Any], depth: int) -> list[str]:
    """The JSON literal of every value; all-float and all-str columns are mapped in one pass."""
    kinds = set(map(type, values))
    if kinds == {float}:
        text = list(map(float.__repr__, map(float, map(_FORMAT4, values))))
        return list(map(_NON_FINITE.get, text, text))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    return [_encode(value, depth) for value in values]


def _records(table: _Table, depth: int) -> list[str]:
    """Each row of ``table`` as a JSON object ``depth`` levels deep."""
    fields = sorted({header: i for i, header in enumerate(table.headers)}.items())
    if not fields:
        return ["{}"] * table.size
    pad = "\n" + "  " * (depth + 1)
    template = (
        "{" + pad
        + ("," + pad).join(_key(header).replace("%", "%%") + ": %s" for header, _ in fields)
        + pad[:-2] + "}"
    )
    columns = table.columns()
    cells = [_json_column(columns[i], depth + 1) for _, i in fields]
    return list(map(template.__mod__, zip(*cells)))


def _encode(value: Any, depth: int) -> str:
    """``value`` spelled as ``json.dumps(..., indent=2, sort_keys=True)`` spells
    it ``depth`` levels deep, with every float value rounded by ``round4``."""
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
        return _float_literal(round4(value))
    pad = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{_key(k)}: {_encode(v, depth + 1)}" for k, v in sorted(value.items()))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if isinstance(value, _Table):
        items = _records(value, depth + 1)
    elif isinstance(value, (list, tuple)):
        items = [_encode(item, depth + 1) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return "[]"
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def render_json(payload: Any) -> str:
    return _encode(payload, 0) + "\n"


def _csv(table: _Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    writer.writerows(table.text_rows())
    return buf.getvalue()


def _markdown(table: _Table) -> str:
    lines = [
        "| " + " | ".join(table.headers) + " |",
        "|" + "|".join("---" for _ in table.headers) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in table.text_rows()]
    return "\n".join(lines) + "\n"


def render_csv(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    return _csv(_Table(headers, list(rows)))


def render_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    return _markdown(_Table(headers, list(rows)))


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
        "json": lambda: render_json(payload),
        "csv": lambda: _csv(table),
        "markdown": lambda: "".join(
            part if isinstance(part, str) else _markdown(part) for part in markdown
        ),
    }
    return {output_name(stem, f): renderers[f]() for f in FORMATS if f in formats}


def write_outputs(out_dir: str | Path, files: Mapping[str, str]) -> list[Path]:
    """Atomically materialize the rendered files in ``out_dir``.

    Content is staged into temp files first and renamed only after every
    stage write succeeded, so an error cannot leave partial outputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged: list[tuple[Path, Path]] = []
    try:
        for name, text in files.items():
            final = out / name
            tmp = out / f".{name}.tmp"
            tmp.write_text(text, encoding="utf-8")
            staged.append((tmp, final))
    except OSError:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise
    written = []
    for tmp, final in staged:
        os.replace(tmp, final)
        written.append(final)
    return written


# --- score report -----------------------------------------------------------

_SCORE_HEADERS = (
    "rank", "design", "adaptability", "piracy_threat", "performance_tolerance",
    "resource_fit", "composite", "normalized", "exposure", "redaction_ratio",
)


def score_rows(cards: Sequence[ScoreCard]) -> list[list[Any]]:
    return [
        [
            rank,
            card.ip_id,
            card.adaptability,
            card.piracy_threat,
            card.performance_tolerance,
            card.resource_fit,
            card.composite,
            card.normalized,
            card.exposure,
            card.redaction_ratio,
        ]
        for rank, card in enumerate(cards, start=1)
    ]


def score_report_files(cards: Sequence[ScoreCard], formats: Sequence[str]) -> dict[str, str]:
    table = _Table(_SCORE_HEADERS, score_rows(cards))
    return _render("score", formats, {"report": "score", "cards": table}, table, [table[1:8]])


# --- partition report --------------------------------------------------------


def partition_report_files(
    plan: PartitionPlan, budget: FabricBudget, formats: Sequence[str]
) -> dict[str, str]:
    summary = {
        "report": "partition",
        "method": plan.method,
        "capacity": budget.capacity,
        "used_area": plan.used_area,
        "total_score": plan.total_score,
        "efpga_ips": sorted(plan.efpga_ips),
        "asic_ips": sorted(plan.asic_ips),
    }
    rows = [["efpga", ip_id] for ip_id in sorted(plan.efpga_ips)]
    rows += [["asic", ip_id] for ip_id in sorted(plan.asic_ips)]
    table = _Table(("placement", "design"), rows)
    header = (
        f"method: {plan.method}, capacity: {fmt(float(budget.capacity))}, "
        f"used: {fmt(plan.used_area)}, total score: {fmt(plan.total_score)}\n\n"
    )
    return _render("partition", formats, summary, table, [header, table])


# --- carbon report -----------------------------------------------------------

_CARBON_HEADERS = ("design", "platform", "scenario_kind", "scenario_value", "kg_co2")


def _scenario_sort_key(scenario: Scenario) -> tuple[int, float]:
    return (0 if scenario.kind == "lifetime_years" else 1, scenario.value)


def carbon_rows(reports: Sequence[CarbonReport]) -> list[list[Any]]:
    rows: list[list[Any]] = []
    for report in reports:
        for scenario in sorted(report.cells, key=_scenario_sort_key):
            rows.append(
                [
                    report.design_id,
                    report.platform,
                    scenario.kind,
                    scenario.value,
                    report.cells[scenario],
                ]
            )
    return rows


def carbon_report_files(
    reports: Sequence[CarbonReport],
    comparisons: Mapping[str, CarbonComparison],
    mean_reduction: float | None,
    reduction_designs: Sequence[str],
    formats: Sequence[str],
) -> dict[str, str]:
    table = _Table(_CARBON_HEADERS, carbon_rows(reports))
    reduction_rows = [
        [design_id, comparisons[design_id].mean_reduction] for design_id in sorted(comparisons)
    ]
    payload = {
        "report": "carbon",
        "cells": table,
        "reductions_vs_fpga": dict(reduction_rows),
        "mean_reduction": mean_reduction,
        "mean_reduction_designs": list(reduction_designs),
    }
    markdown: list[_Table | str] = [table]
    if reduction_rows:
        markdown += ["\n", _Table(("design", "mean_reduction_vs_fpga"), reduction_rows)]
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
    """

    ours: str
    baseline: str
    aggregates: Mapping[str, Mapping[str, float]]
    series: Sequence[tuple[str, str, str, float]]  # (metric, platform, ip_id, value)


def _platform_metric(ip, metric: str, platform: str) -> float:
    if metric == "frequency_ghz":
        value = {
            "asic": ip.f_max_asic,
            "ecologic": ip.f_max_efpga,
            "fpga": ip.f_max_fpga,
        }[platform]
    else:
        mapping = getattr(ip, metric)
        value = None if mapping is None else mapping.get(platform)
    if value is None:
        raise ValidationError(
            f"IP {ip.id!r} has no {metric} value for platform {platform!r}"
        )
    return float(value)


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
    series: list[tuple[str, str, str, float]] = []
    for metric in _COMPARE_METRICS:
        per_platform: dict[str, float] = {}
        for platform in (ours, baseline):
            values = [_platform_metric(ip, metric, platform) for ip in dataset.ips]
            try:
                per_platform[platform] = math.fsum(values) / len(values)
            except OverflowError:
                raise ValidationError(
                    f"{metric} values of platform {platform!r} overflow their sum"
                ) from None
            series.extend((metric, platform, ip.id, v) for ip, v in zip(dataset.ips, values))
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
    agg_rows = []
    for metric in _COMPARE_METRICS:
        entry = comparison.aggregates[metric]
        stat = "ratio" if "ratio" in entry else "delta"
        agg_rows.append(
            [metric, entry["ours"], entry["baseline"], stat, entry[stat]]
        )
    agg_headers = (
        "metric", comparison.ours, comparison.baseline, "statistic", "value",
    )
    series = _Table(("metric", "series", "x", "y"), comparison.series)
    payload = {
        "report": "compare",
        "ours": comparison.ours,
        "baseline": comparison.baseline,
        "aggregates": {k: dict(v) for k, v in comparison.aggregates.items()},
        "series": series,
    }
    return _render("compare", formats, payload, series, [_Table(agg_headers, agg_rows)])


# --- aging report --------------------------------------------------------------


def aging_report_files(
    curves: Sequence[SlackCurve],
    slacks_at_temp: Mapping[str, float],
    temperature_c: float,
    plan: RemapPlan | None,
    formats: Sequence[str],
) -> dict[str, str]:
    slack_rows = [[p, temperature_c, slacks_at_temp[p]] for p in sorted(slacks_at_temp)]
    slack_table = _Table(("platform", "temperature_c", "slack_ns"), slack_rows)
    payload: dict[str, Any] = {
        "report": "aging",
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
        markdown += ["\n", _Table(("block", "region"), sorted(plan.assignment.items()))]
        markdown.append(f"\nmin slack before: {fmt(plan.min_slack_before)} ns, "
                        f"after: {fmt(plan.min_slack_after)} ns\n")
    return _render("aging", formats, payload, slack_table, markdown)
