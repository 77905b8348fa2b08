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
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .aging import RemapPlan, SlackCurve
from .carbon import CarbonComparison, CarbonReport, Scenario
from .model import PLATFORMS, Dataset, ValidationError
from .partition import FabricBudget, PartitionPlan
from .scoring import ScoreCard

FORMATS = ("json", "csv", "markdown")
_EXTENSIONS = {"json": "json", "csv": "csv", "markdown": "md"}

# (headers, rows); a markdown part is either a table or literal text
_Table = tuple[Sequence[str], Sequence[Sequence[Any]]]


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


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        return round4(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(payload: Any) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def render_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    return buf.getvalue()


def render_markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
    return "\n".join(lines) + "\n"


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
        "csv": lambda: render_csv(*table),
        "markdown": lambda: "".join(
            part if isinstance(part, str) else render_markdown_table(*part) for part in markdown
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
    rows = score_rows(cards)
    payload = {"report": "score", "cards": [dict(zip(_SCORE_HEADERS, row)) for row in rows]}
    markdown = [(_SCORE_HEADERS[1:8], [row[1:8] for row in rows])]
    return _render("score", formats, payload, (_SCORE_HEADERS, rows), markdown)


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
    table = (("placement", "design"), rows)
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
    rows = carbon_rows(reports)
    reduction_rows = [
        [design_id, comparisons[design_id].mean_reduction] for design_id in sorted(comparisons)
    ]
    payload = {
        "report": "carbon",
        "cells": [dict(zip(_CARBON_HEADERS, row)) for row in rows],
        "reductions_vs_fpga": dict(reduction_rows),
        "mean_reduction": mean_reduction,
        "mean_reduction_designs": list(reduction_designs),
    }
    markdown: list[_Table | str] = [(_CARBON_HEADERS, rows)]
    if reduction_rows:
        markdown += ["\n", (("design", "mean_reduction_vs_fpga"), reduction_rows)]
    if mean_reduction is not None:
        markdown.append(
            f"\nmean reduction over {', '.join(reduction_designs)}: {fmt(mean_reduction)}\n"
        )
    return _render("carbon", formats, payload, (_CARBON_HEADERS, rows), markdown)


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
            per_platform[platform] = math.fsum(values) / len(values)
            series.extend((metric, platform, ip.id, v) for ip, v in zip(dataset.ips, values))
        entry = {"ours": per_platform[ours], "baseline": per_platform[baseline]}
        if metric == "power_mw":
            entry["ratio"] = per_platform[baseline] / per_platform[ours]
        elif metric == "frequency_ghz":
            entry["ratio"] = per_platform[ours] / per_platform[baseline]
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
    series_headers = ("metric", "series", "x", "y")
    series_rows = [list(row) for row in comparison.series]
    payload = {
        "report": "compare",
        "ours": comparison.ours,
        "baseline": comparison.baseline,
        "aggregates": {k: dict(v) for k, v in comparison.aggregates.items()},
        "series": [dict(zip(series_headers, row)) for row in series_rows],
    }
    return _render(
        "compare", formats, payload, (series_headers, series_rows), [(agg_headers, agg_rows)]
    )


# --- aging report --------------------------------------------------------------


def aging_report_files(
    curves: Sequence[SlackCurve],
    slacks_at_temp: Mapping[str, float],
    temperature_c: float,
    plan: RemapPlan | None,
    formats: Sequence[str],
) -> dict[str, str]:
    slack_rows = [[p, temperature_c, slacks_at_temp[p]] for p in sorted(slacks_at_temp)]
    slack_table = (("platform", "temperature_c", "slack_ns"), slack_rows)
    payload: dict[str, Any] = {
        "report": "aging",
        "temperature_c": temperature_c,
        "slack_ns": dict(slacks_at_temp),
        "curves": {curve.platform: [list(point) for point in curve.points] for curve in curves},
    }
    markdown: list[_Table | str] = [slack_table]
    if plan is not None:
        payload["remap"] = {
            "assignment": dict(plan.assignment),
            "min_slack_before": plan.min_slack_before,
            "min_slack_after": plan.min_slack_after,
        }
        markdown += ["\n", (("block", "region"), sorted(plan.assignment.items()))]
        markdown.append(f"\nmin slack before: {fmt(plan.min_slack_before)} ns, "
                        f"after: {fmt(plan.min_slack_after)} ns\n")
    return _render("aging", formats, payload, slack_table, markdown)
