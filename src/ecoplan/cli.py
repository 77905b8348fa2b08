"""Command-line entry point.

One executable with subcommands ``score``, ``partition``, ``carbon``,
``compare``, and ``aging``. A single JSON run-configuration file names the
dataset and carries weights, the fabric budget, the carbon sweep and anchors,
and the aging inputs; a handful of flags override individual settings.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
On any error the output directory is left without new files.

``import ecoplan.cli`` loads only the model and report layers; each
``cmd_*`` imports the layers it runs, so a subcommand pays only for those.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import report as report_mod
from .model import (
    PLATFORMS,
    DatasetError,
    ScoreWeights,
    ValidationError,
    _check_keys,
    _fields_of,
    _from_dict,
    _read_json_object,
    _require_finite,
    load_dataset,
    weights_from_dict,
)

CONFIG_SCHEMA_VERSION = "1"

_TOP_KEYS = (
    "schema_version",
    "dataset",
    "weights",
    "normalize_piracy",
    "fabric_budget",
    "partition_method",
    "output_dir",
    "formats",
    "carbon",
    "compare",
    "aging",
)
_CARBON_KEYS = (
    "base",
    "anchor_lifetime_years",
    "anchors",
    "sweep",
    "reduction_designs",
    "reduction_scenario",
)
_CARBON_BASE_KEYS = (
    "n_vol",
    "grid_intensity",
    "cpu_power_per_core_w",
    "cpu_cores",
    "rtl_synth_hours",
    "hls_synth_hours",
    "config_hours",
)
_AGING_KEYS = ("curves", "temperature_c", "regions", "blocks")


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; paths already resolved against the config
    file's directory."""

    dataset_path: Path
    weights: ScoreWeights
    normalize_piracy: bool
    output_dir: Path
    formats: tuple[str, ...]
    fabric_capacity: float | None
    partition_method: str
    carbon: Mapping[str, Any] | None
    compare: Mapping[str, Any]
    aging: Mapping[str, Any] | None


def load_config(path: str | Path) -> RunConfig:
    raw = _read_json_object(path, _TOP_KEYS, ("dataset", "weights"))
    version = raw.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValidationError(f"{path}: unknown config schema_version {version!r}")

    base_dir = Path(path).parent

    def resolve(key: str, default: str | None = None) -> Path:
        value = raw.get(key, default)
        if not isinstance(value, str):
            raise ValidationError(f"{path}: {key} must be a string, got {value!r}")
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base_dir / candidate

    for key, allowed in (("fabric_budget", ("capacity",)), ("carbon", _CARBON_KEYS),
                         ("aging", _AGING_KEYS)):
        if raw.get(key) is not None:
            _check_keys(raw[key], allowed, f"{path}: {key}")
    compare_raw = _check_keys(raw.get("compare", {}), ("ours", "baseline"), f"{path}: compare")

    normalize_piracy = raw.get("normalize_piracy", False)
    if not isinstance(normalize_piracy, bool):
        raise ValidationError(
            f"{path}: normalize_piracy must be true or false, got {normalize_piracy!r}"
        )
    formats = _list(raw.get("formats", list(report_mod.FORMATS)), f"{path}: formats", True)
    formats = report_mod.check_formats(tuple(formats))
    return RunConfig(
        dataset_path=resolve("dataset"),
        weights=weights_from_dict(raw["weights"]),
        normalize_piracy=normalize_piracy,
        output_dir=resolve("output_dir", "out"),
        formats=formats,
        fabric_capacity=(raw.get("fabric_budget") or {}).get("capacity"),
        partition_method=raw.get("partition_method", "greedy"),
        carbon=raw.get("carbon"),
        compare=compare_raw,
        aging=raw.get("aging"),
    )


def cmd_score(config: RunConfig, formats: Sequence[str]) -> dict[str, str]:
    from .scoring import score_dataset

    dataset = load_dataset(config.dataset_path)
    cards = score_dataset(dataset, config.weights, normalize_piracy=config.normalize_piracy)
    return report_mod.score_report_files(cards, formats)


def cmd_partition(
    config: RunConfig, formats: Sequence[str], method: str | None, capacity: float | None
) -> dict[str, str]:
    from .partition import FabricBudget, plan_exact, plan_greedy, validate_plan
    from .scoring import score_dataset

    dataset = load_dataset(config.dataset_path)
    cards = score_dataset(dataset, config.weights, normalize_piracy=config.normalize_piracy)
    effective_capacity = capacity if capacity is not None else config.fabric_capacity
    if effective_capacity is None:
        raise ValidationError("no fabric capacity given (config fabric_budget or --capacity)")
    budget = FabricBudget(capacity=_require_finite(effective_capacity, "fabric_budget capacity"))
    effective_method = method or config.partition_method
    if effective_method == "greedy":
        plan = plan_greedy(cards, dataset, budget)
    elif effective_method == "exact":
        plan = plan_exact(cards, dataset, budget)
    else:
        raise ValidationError(f"unknown partition method {effective_method!r}")
    validate_plan(plan, dataset, budget)
    return report_mod.partition_report_files(plan, budget, formats)


def _list(value: Any, what: str, strings: bool = False) -> list:
    """``value``, which must be a JSON list (of strings, if ``strings``)."""
    if not isinstance(value, list) or strings and not all(isinstance(v, str) for v in value):
        raise ValidationError(
            f"{what} must be a list{' of strings' if strings else ''}, got {value!r}"
        )
    return value


def cmd_carbon(config: RunConfig, formats: Sequence[str]) -> dict[str, str]:
    from . import carbon as carbon_mod

    if config.carbon is None:
        raise ValidationError("config has no 'carbon' section")
    section = _check_keys(
        config.carbon, _CARBON_KEYS, "carbon config", ("base", "anchors", "sweep")
    )
    base_raw = _check_keys(section["base"], _CARBON_BASE_KEYS, "carbon base")
    anchor_years = _require_finite(
        section.get("anchor_lifetime_years", 1.0), "carbon anchor_lifetime_years"
    )
    # every sweep key is optional here: SweepSpec words the missing ones
    sweep_raw = _check_keys(section["sweep"], _fields_of(carbon_mod.SweepSpec)[0], "carbon sweep")
    spec = carbon_mod.SweepSpec(
        lifetimes_years=tuple(_list(sweep_raw.get("lifetimes_years", []),
                                    "carbon sweep lifetimes_years")),
        volumes=tuple(_list(sweep_raw.get("volumes", []), "carbon sweep volumes")),
        fixed_lifetime_for_volume_sweep_years=sweep_raw.get(
            "fixed_lifetime_for_volume_sweep_years", 0.0
        ),
    )

    anchors = section["anchors"]
    if not isinstance(anchors, dict) or not anchors:
        raise ValidationError("carbon anchors must map design -> platform -> kg")

    reports: list[carbon_mod.CarbonReport] = []
    comparisons: dict[str, carbon_mod.CarbonComparison] = {}
    for design_id in sorted(anchors):
        platform_reports: dict[str, carbon_mod.CarbonReport] = {}
        platform_anchors = _check_keys(anchors[design_id], None, f"carbon anchors {design_id!r}")
        for platform in sorted(platform_anchors):
            if platform not in PLATFORMS:
                raise ValidationError(
                    f"carbon anchors: unknown platform {platform!r} for design {design_id!r}"
                )
            anchor_kg = _require_finite(
                platform_anchors[platform], f"carbon anchors {design_id!r} {platform}"
            )
            base = carbon_mod.CarbonParams(
                lifetime_hours=anchor_years * carbon_mod.HOURS_PER_YEAR,
                e_use_per_hour_kwh=1.0,  # placeholder; replaced by calibration
                **base_raw,
            )
            calibrated = carbon_mod.calibrated_params(anchor_kg, base)
            platform_reports[platform] = carbon_mod.sweep(spec, calibrated, design_id, platform)
        reports.extend(platform_reports.values())
        if "ecologic" in platform_reports and "fpga" in platform_reports:
            comparisons[design_id] = carbon_mod.compare(
                platform_reports["ecologic"], platform_reports["fpga"]
            )

    reduction_designs = _list(
        section.get("reduction_designs", sorted(comparisons)), "carbon reduction_designs", True
    )
    scenario_raw = section.get("reduction_scenario", {"kind": "lifetime_years", "value": 1.0})
    _check_keys(scenario_raw, ("kind", "value"), "carbon reduction_scenario", ("kind", "value"))
    scenario = carbon_mod.Scenario(
        str(scenario_raw["kind"]),
        _require_finite(scenario_raw["value"], "carbon reduction_scenario value"),
    )
    mean_reduction = None
    if comparisons and reduction_designs:
        mean_reduction = carbon_mod.mean_reduction_at(comparisons, scenario, reduction_designs)
    return report_mod.carbon_report_files(
        reports, comparisons, mean_reduction, reduction_designs, formats
    )


def cmd_compare(config: RunConfig, formats: Sequence[str]) -> dict[str, str]:
    dataset = load_dataset(config.dataset_path)
    comparison = report_mod.platform_comparison(dataset, **config.compare)
    return report_mod.compare_report_files(comparison, formats)


def cmd_aging(
    config: RunConfig, formats: Sequence[str], temperature: float | None
) -> dict[str, str]:
    from . import aging as aging_mod

    if config.aging is None:
        raise ValidationError("config has no 'aging' section")
    section = config.aging
    curves_raw = _check_keys(section.get("curves") or {}, None, "aging curves")
    if not curves_raw:
        raise ValidationError("aging config requires 'curves'")
    curves = [
        aging_mod.SlackCurve(platform=platform, points=points)
        for platform, points in sorted(curves_raw.items())
    ]
    temp = temperature if temperature is not None else section.get("temperature_c")
    if temp is None:
        raise ValidationError("no temperature given (config temperature_c or --temperature)")
    temp = _require_finite(temp, "aging temperature")
    slacks = {curve.platform: aging_mod.slack_at(curve, temp) for curve in curves}

    plan = None
    regions_raw = _list(section.get("regions") or [], "aging regions")
    blocks_raw = _list(section.get("blocks") or [], "aging blocks")
    if regions_raw and blocks_raw:
        regions = [_from_dict(aging_mod.FabricRegion, item, "aging region") for item in regions_raw]
        blocks = [_from_dict(aging_mod.LogicBlock, item, "aging block") for item in blocks_raw]
        base_curve = next(
            (c for c in curves if c.platform == "ecologic"), curves[0]
        )
        plan = aging_mod.remap(blocks, regions, base_curve, temp)
    return report_mod.aging_report_files(curves, slacks, temp, plan, formats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecoplan",
        description=(
            "Score SoC IP blocks for eFPGA mapping, plan fabric partitions, and "
            "report deployment carbon, aging, and platform comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="run configuration JSON file")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        p.add_argument(
            "--formats",
            help="comma-separated subset of json,csv,markdown (overrides config)",
        )

    p_score = sub.add_parser("score", help="rank IPs by composite score")
    add_common(p_score)

    p_part = sub.add_parser("partition", help="plan the fabric placement")
    add_common(p_part)
    p_part.add_argument("--method", choices=("greedy", "exact"), help="planner to use")
    p_part.add_argument("--capacity", type=float, help="fabric capacity override")

    p_carbon = sub.add_parser("carbon", help="deployment-carbon sweep and reductions")
    add_common(p_carbon)

    p_compare = sub.add_parser("compare", help="cross-platform metric comparison")
    add_common(p_compare)

    p_aging = sub.add_parser("aging", help="slack-vs-temperature and remap report")
    add_common(p_aging)
    p_aging.add_argument("--temperature", type=float, help="evaluation temperature (degC)")

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = load_config(args.config)
    formats = config.formats
    if args.formats:
        formats = report_mod.check_formats(tuple(args.formats.split(",")))
    out_dir = Path(args.out) if args.out else config.output_dir

    if args.command == "score":
        files = cmd_score(config, formats)
    elif args.command == "partition":
        if args.capacity is not None and args.capacity <= 0:
            raise ValidationError(f"--capacity must be > 0, got {args.capacity}")
        files = cmd_partition(config, formats, args.method, args.capacity)
    elif args.command == "carbon":
        files = cmd_carbon(config, formats)
    elif args.command == "compare":
        files = cmd_compare(config, formats)
    elif args.command == "aging":
        files = cmd_aging(config, formats, args.temperature)
    else:  # pragma: no cover - argparse enforces the choices
        raise ValidationError(f"unknown command {args.command!r}")

    written = report_mod.write_outputs(out_dir, files)
    for path in written:
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(argv)
    except (DatasetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
