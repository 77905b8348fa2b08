"""Command-line entry point.

One executable with subcommands ``score``, ``partition``, ``carbon``,
``compare``, and ``aging``. A single JSON run-configuration file names the
dataset and carries weights, the fabric budget, the carbon sweep and anchors,
and the aging inputs. ``_CONFIG`` states every key of that file, checked
whichever subcommand runs; ``_FLAGS`` maps each flag to the ``RunConfig``
field it replaces; ``_COMMANDS`` gives each subcommand's ``cmd_*`` and flags.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
An error leaves no temp file in the output directory and no new file, unless
a rename failed: the files renamed before it stay.

Each ``cmd_*`` checks what only the command line adds, then makes one call into
its layer (the carbon and aging sections run in ``carbon.run_section`` and
``aging.run_section``) and one into ``report``; it imports only the layers it runs.
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
    _REAL, PLATFORMS, ScoreWeights, ValidationError, _check_keys, _from_dict, _read_json_object,
    _require_finite, _require_number, _require_text, load_dataset,
)

CONFIG_SCHEMA_VERSION = "1"

_REQUIRED = object()  # the default of a key that must be given
_FINITE = "a finite number"
_STRINGS = "a list of strings"
_SECTION = "a config section"
_NOUNS = {bool: "true or false", dict: "a JSON object", list: "a list", _STRINGS: _STRINGS}

# Every key of the run configuration, as section -> (key, kind, default) rows.
# A kind is a JSON type, _FINITE, _STRINGS, a tuple of the allowed strings, or
# _SECTION: the section named by the key's path, checked the same way. str and
# _STRINGS entries are text (model._require_text); null is absent where the default is None.
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
        ("base", dict, _REQUIRED),  # CarbonParams fields, checked by carbon.run_section
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


def _of_kind(value: Any, kind: Any) -> bool:
    if kind is _STRINGS:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return value in kind if isinstance(kind, tuple) else isinstance(value, kind)


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
        elif kind is str:
            value = _require_text(value, f"{where}: {label}")
        elif not _of_kind(value, kind):
            noun = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _NOUNS.get(kind)
            raise ValidationError(f"{where}: {label} must be {noun}, got {value!r}")
        elif kind is _STRINGS:
            value = [_require_text(entry, f"{where}: {label} entry") for entry in value]
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
        weights=_from_dict(ScoreWeights, raw["weights"], "weights"),
        normalize_piracy=raw["normalize_piracy"],
        output_dir=base_dir / raw["output_dir"],
        formats=report_mod.check_formats(raw["formats"], f"{path}: formats"),
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

    if config.fabric_capacity is None:
        raise ValidationError("no fabric capacity given (config fabric_budget or --capacity)")
    dataset = load_dataset(config.dataset_path)
    cards = score_dataset(dataset, config.weights, normalize_piracy=config.normalize_piracy)
    budget = FabricBudget(capacity=config.fabric_capacity)
    planner = plan_exact if config.partition_method == "exact" else plan_greedy
    plan = planner(cards, dataset, budget)
    validate_plan(plan, dataset, budget)
    return report_mod.partition_report_files(plan, budget, config.formats)


def cmd_carbon(config: RunConfig) -> dict[str, str]:
    from .carbon import run_section

    if config.carbon is None:
        raise ValidationError("config has no 'carbon' section")
    return report_mod.carbon_report_files(*run_section(config.carbon), config.formats)


def cmd_compare(config: RunConfig) -> dict[str, str]:
    dataset = load_dataset(config.dataset_path)
    comparison = report_mod.platform_comparison(dataset, **config.compare)
    return report_mod.compare_report_files(comparison, config.formats)


def cmd_aging(config: RunConfig) -> dict[str, str]:
    from .aging import run_section

    if config.aging is None:
        raise ValidationError("config has no 'aging' section")
    if config.temperature_c is None:
        raise ValidationError("no temperature given (config temperature_c or --temperature)")
    curves, slacks, plan = run_section(config.aging, config.temperature_c)
    return report_mod.aging_report_files(curves, slacks, config.temperature_c, plan, config.formats)


# Each flag but --config: the RunConfig field it replaces, its check, and its argparse options.
_FLAGS: dict[str, tuple[str, Callable[[Any], Any], dict[str, Any]]] = {
    "--out": ("output_dir", Path, {"help": "output directory (overrides config output_dir)"}),
    "--formats": ("formats", lambda text: report_mod.check_formats(
        [_require_text(entry, "--formats entry") for entry in text.split(",")], "--formats"),
                  {"help": "comma-separated subset of json,csv,markdown (overrides config)"}),
    "--method": ("partition_method", str,
                 {"choices": ("greedy", "exact"), "help": "planner to use"}),
    "--capacity": ("fabric_capacity",  # FabricBudget checks it too, but names no flag
                   lambda value: _require_number(value, _REAL, 0, True, None, "--capacity"),
                   {"type": float, "help": "fabric capacity override"}),
    "--temperature": ("temperature_c", lambda value: _require_finite(value, "--temperature"),
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
    except ValueError as exc:  # DatasetError and ValidationError too
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
