"""Command-line entry point.

One executable with subcommands ``score``, ``partition``, ``carbon``,
``compare``, and ``aging``. A single JSON run-configuration file names the
dataset and carries weights, the fabric budget, the carbon sweep and anchors,
and the aging inputs. ``_CONFIG`` states every key of that file, checked
whichever subcommand runs; ``_FLAGS`` maps each flag to the ``RunConfig``
field it replaces; ``_COMMANDS`` gives each subcommand's ``cmd_*`` and flags.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
On any error the output directory is left without new files.

``import ecoplan.cli`` loads only the model and report layers; each
``cmd_*`` imports the layers it runs, so a subcommand pays only for those.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import report as report_mod
from .model import (
    _REAL, PLATFORMS, DatasetError, ScoreWeights, ValidationError, _check_keys, _fields_of,
    _from_dict, _read_json_object, _require_finite, _require_number, _require_text, load_dataset,
    weights_from_dict,
)

CONFIG_SCHEMA_VERSION = "1"

_REQUIRED = object()  # the default of a key that must be given
_FINITE = "a finite number"
_STRINGS = "a list of strings"
_SECTION = "a config section"
_NOUNS = {str: "a string", bool: "true or false", dict: "a JSON object", list: "a list",
          _STRINGS: _STRINGS}

# Every key of the run configuration, as section -> (key, kind, default) rows.
# A kind is a JSON type, _FINITE, _STRINGS, a tuple of the allowed strings, or
# _SECTION: the section named by the key's path, checked the same way. A null
# value stands for an absent key only where the default is None.
_CONFIG: dict[str, tuple[tuple[str, Any, Any], ...]] = {
    "": (
        ("schema_version", (CONFIG_SCHEMA_VERSION,), CONFIG_SCHEMA_VERSION),
        ("dataset", str, _REQUIRED),
        ("weights", dict, _REQUIRED),
        ("normalize_piracy", bool, False),
        ("fabric_budget", _SECTION, None),
        ("partition_method", ("greedy", "exact"), "greedy"),
        ("output_dir", str, "out"),
        ("formats", _STRINGS, list(report_mod.FORMATS)),
        ("carbon", _SECTION, None),
        ("compare", _SECTION, {}),
        ("aging", _SECTION, None),
    ),
    "fabric_budget": (("capacity", _FINITE, None),),
    "compare": (("ours", PLATFORMS, "ecologic"), ("baseline", PLATFORMS, "fpga")),
    "carbon": (
        ("base", dict, _REQUIRED),  # CarbonParams fields, checked by cmd_carbon
        ("anchor_lifetime_years", _FINITE, 1.0),
        ("anchors", dict, _REQUIRED),
        ("sweep", _SECTION, _REQUIRED),
        ("reduction_designs", _STRINGS, None),  # None: every compared design
        ("reduction_scenario", _SECTION, {"kind": "lifetime_years", "value": 1.0}),
    ),
    "carbon sweep": (
        ("lifetimes_years", list, _REQUIRED),
        ("volumes", list, _REQUIRED),
        ("fixed_lifetime_for_volume_sweep_years", _FINITE, _REQUIRED),
    ),
    "carbon reduction_scenario": (
        ("kind", ("lifetime_years", "volume"), _REQUIRED),
        ("value", _FINITE, _REQUIRED),
    ),
    "aging": (
        ("curves", dict, _REQUIRED),
        ("temperature_c", _FINITE, None),
        ("regions", list, None),
        ("blocks", list, None),
    ),
}
_CARBON_DERIVED = ("e_use_per_hour_kwh", "lifetime_hours", "prototype")  # not config keys


def _of_kind(value: Any, kind: Any) -> bool:
    if isinstance(kind, tuple):
        return value in kind
    if kind is _STRINGS:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return isinstance(value, kind)


def _section(raw: Any, name: str, where: str) -> dict[str, Any]:
    """Section ``name`` of the config file ``where``, checked against its rows
    in ``_CONFIG``: known keys only, every required one given, each value of
    its row's kind (finite numbers as floats), defaults for the absent keys."""
    rows = _CONFIG[name]
    required = [key for key, _, default in rows if default is _REQUIRED]
    _check_keys(raw, [key for key, _, _ in rows], f"{where}: {name}" if name else where, required)
    section = {}
    for key, kind, default in rows:
        label = f"{name} {key}".lstrip()
        value = raw.get(key, default)
        if value is None and default is None:
            pass
        elif kind is _SECTION:
            value = _section(value, label, where)
        elif kind is _FINITE:
            value = _require_finite(value, f"{where}: {label}")
        elif not _of_kind(value, kind):
            noun = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _NOUNS.get(kind)
            raise ValidationError(f"{where}: {label} must be {noun}, got {value!r}")
        section[key] = value
    return section


@dataclass(frozen=True)
class RunConfig:
    """Checked settings, flags applied by ``run``; paths resolved against the config's directory."""

    dataset_path: Path
    weights: ScoreWeights
    normalize_piracy: bool
    output_dir: Path
    formats: tuple[str, ...]
    fabric_capacity: float | None
    partition_method: str
    temperature_c: float | None
    carbon: Mapping[str, Any] | None
    compare: Mapping[str, Any]
    aging: Mapping[str, Any] | None


def load_config(path: str | Path) -> RunConfig:
    raw = _section(_read_json_object(path, None), "", str(path))
    base_dir = Path(path).parent  # an absolute path joined to it stays as it is
    return RunConfig(
        dataset_path=base_dir / raw["dataset"],
        weights=weights_from_dict(raw["weights"]),
        normalize_piracy=raw["normalize_piracy"],
        output_dir=base_dir / raw["output_dir"],
        formats=report_mod.check_formats(tuple(raw["formats"])),
        fabric_capacity=(raw["fabric_budget"] or {}).get("capacity"),
        partition_method=raw["partition_method"],
        temperature_c=(raw["aging"] or {}).pop("temperature_c", None),  # moved out of aging
        carbon=raw["carbon"],
        compare=raw["compare"],
        aging=raw["aging"],
    )


def cmd_score(config: RunConfig) -> dict[str, str]:
    from .scoring import score_dataset

    dataset = load_dataset(config.dataset_path)
    cards = score_dataset(dataset, config.weights, normalize_piracy=config.normalize_piracy)
    return report_mod.score_report_files(cards, config.formats)


def cmd_partition(config: RunConfig) -> dict[str, str]:
    from .partition import FabricBudget, plan_exact, plan_greedy, validate_plan
    from .scoring import score_dataset

    dataset = load_dataset(config.dataset_path)
    cards = score_dataset(dataset, config.weights, normalize_piracy=config.normalize_piracy)
    if config.fabric_capacity is None:
        raise ValidationError("no fabric capacity given (config fabric_budget or --capacity)")
    budget = FabricBudget(capacity=config.fabric_capacity)
    planner = plan_exact if config.partition_method == "exact" else plan_greedy
    plan = planner(cards, dataset, budget)
    validate_plan(plan, dataset, budget)
    return report_mod.partition_report_files(plan, budget, config.formats)


def cmd_carbon(config: RunConfig) -> dict[str, str]:
    from . import carbon as carbon_mod

    if config.carbon is None:
        raise ValidationError("config has no 'carbon' section")
    section = config.carbon
    base_keys = [f for f in _fields_of(carbon_mod.CarbonParams)[0] if f not in _CARBON_DERIVED]
    hours = section["anchor_lifetime_years"] * carbon_mod.HOURS_PER_YEAR
    base = carbon_mod.CarbonParams(
        lifetime_hours=_require_number(hours, _REAL, 0, True, None,
                                       "carbon anchor_lifetime_years in hours"),
        e_use_per_hour_kwh=1.0,  # placeholder; replaced by calibration
        **_check_keys(section["base"], base_keys, "carbon base"),
    )
    sweep_raw = section["sweep"]
    spec = carbon_mod.SweepSpec(tuple(sweep_raw["lifetimes_years"]), tuple(sweep_raw["volumes"]),
                                sweep_raw["fixed_lifetime_for_volume_sweep_years"])

    anchors = section["anchors"]
    if not anchors:
        raise ValidationError("carbon anchors must map design -> platform -> kg")

    reports: list[carbon_mod.CarbonReport] = []
    comparisons: dict[str, carbon_mod.CarbonComparison] = {}
    for design_id in sorted(anchors):
        _require_text(design_id, "carbon anchors design")
        platform_reports: dict[str, carbon_mod.CarbonReport] = {}
        platform_anchors = _check_keys(anchors[design_id], None, f"carbon anchors {design_id!r}")
        if not platform_anchors:
            raise ValidationError(f"carbon anchors {design_id!r} must map platform -> kg")
        for platform in sorted(platform_anchors):
            if platform not in PLATFORMS:
                raise ValidationError(
                    f"carbon anchors: unknown platform {platform!r} for design {design_id!r}"
                )
            anchor_kg = _require_finite(
                platform_anchors[platform], f"carbon anchors {design_id!r} {platform}"
            )
            calibrated = carbon_mod.calibrated_params(anchor_kg, base)
            platform_reports[platform] = carbon_mod.sweep(spec, calibrated, design_id, platform)
        reports.extend(platform_reports.values())
        if "ecologic" in platform_reports and "fpga" in platform_reports:
            comparisons[design_id] = carbon_mod.compare(
                platform_reports["ecologic"], platform_reports["fpga"]
            )

    reduction_designs = section["reduction_designs"]
    for design_id in reduction_designs or ():
        _require_text(design_id, "carbon reduction_designs entry")
    reduction_designs = sorted(comparisons) if reduction_designs is None else reduction_designs
    scenario = carbon_mod.Scenario(**section["reduction_scenario"])
    if scenario not in spec._grid[0]:  # the cell keys, which every report holds
        raise ValidationError(f"carbon reduction_scenario {scenario.kind} {scenario.value} "
                              "is not a cell of the sweep grid")
    mean_reduction = None
    if reduction_designs:  # explicit names are checked even when no design is paired
        mean_reduction = carbon_mod.mean_reduction_at(comparisons, scenario, reduction_designs)
    return report_mod.carbon_report_files(
        reports, comparisons, mean_reduction, reduction_designs, config.formats
    )


def cmd_compare(config: RunConfig) -> dict[str, str]:
    dataset = load_dataset(config.dataset_path)
    comparison = report_mod.platform_comparison(dataset, **config.compare)
    return report_mod.compare_report_files(comparison, config.formats)


def cmd_aging(config: RunConfig) -> dict[str, str]:
    from . import aging as aging_mod

    if config.aging is None:
        raise ValidationError("config has no 'aging' section")
    section = config.aging
    if not section["curves"]:
        raise ValidationError("aging curves must be non-empty")
    curves = [aging_mod.SlackCurve(platform, points)
              for platform, points in sorted(section["curves"].items())]
    temp = config.temperature_c
    if temp is None:
        raise ValidationError("no temperature given (config temperature_c or --temperature)")
    slacks = {curve.platform: aging_mod.slack_at(curve, temp) for curve in curves}

    plan = None
    regions, blocks = section["regions"], section["blocks"]
    if regions is not None or blocks is not None:
        for key, items in (("regions", regions), ("blocks", blocks)):
            if not items:
                raise ValidationError(f"aging {key} must be a non-empty list to remap")
        regions = [_from_dict(aging_mod.FabricRegion, r, "aging region") for r in regions]
        blocks = [_from_dict(aging_mod.LogicBlock, b, "aging block") for b in blocks]
        base_curve = next((c for c in curves if c.platform == "ecologic"), curves[0])
        plan = aging_mod.remap(blocks, regions, base_curve, temp)
    return report_mod.aging_report_files(curves, slacks, temp, plan, config.formats)


# Each flag but --config: the RunConfig field it replaces, its check, and its argparse options.
_FLAGS: dict[str, tuple[str, Callable[[Any], Any], dict[str, Any]]] = {
    "--out": ("output_dir", Path, {"help": "output directory (overrides config output_dir)"}),
    "--formats": ("formats", lambda text: report_mod.check_formats(tuple(text.split(","))),
                  {"help": "comma-separated subset of json,csv,markdown (overrides config)"}),
    "--method": ("partition_method", str,
                 {"choices": ("greedy", "exact"), "help": "planner to use"}),
    "--capacity": ("fabric_capacity",  # FabricBudget checks it too, but names no flag
                   lambda value: _require_number(value, _REAL, 0, True, None, "--capacity"),
                   {"type": float, "help": "fabric capacity override"}),
    "--temperature": ("temperature_c", float,
                      {"type": float, "help": "evaluation temperature (degC)"}),
}

# Each subcommand: its help text, its command, and its flags beyond --out and --formats.
_COMMANDS: dict[str, tuple[str, Callable[[RunConfig], dict[str, str]], tuple[str, ...]]] = {
    "score": ("rank IPs by composite score", cmd_score, ()),
    "partition": ("plan the fabric placement", cmd_partition, ("--method", "--capacity")),
    "carbon": ("deployment-carbon sweep and reductions", cmd_carbon, ()),
    "compare": ("cross-platform metric comparison", cmd_compare, ()),
    "aging": ("slack-vs-temperature and remap report", cmd_aging, ("--temperature",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecoplan", description=(
        "Score SoC IP blocks for eFPGA mapping, plan fabric partitions, and "
        "report deployment carbon, aging, and platform comparisons."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, extra) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="run configuration JSON file")
        for flag in ("--out", "--formats", *extra):
            field, _, options = _FLAGS[flag]
            command.add_argument(flag, dest=field, **options)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    config = load_config(args["config"])
    # an absent flag, or an empty --out or --formats, keeps the config's value
    config = replace(config, **{field: check(args[field]) for field, check, _ in _FLAGS.values()
                                if args.get(field) not in (None, "")})
    files = _COMMANDS[args["command"]][1](config)
    for path in report_mod.write_outputs(config.output_dir, files):
        print(path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    With ``argv`` None the arguments come from ``sys.argv`` and the call is the
    program, which ends with it: the run does no cyclic garbage collection,
    and the objects it leaves are frozen so that interpreter shutdown skips
    them. The collector stays off, as nothing runs after. An explicit
    ``argv`` leaves the caller's collector as it was.
    """
    owns_process = argv is None
    if owns_process:
        gc.disable()
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
    finally:
        if owns_process:
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
