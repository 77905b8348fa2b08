"""Decision support for hybrid ASIC/eFPGA SoCs.

Scores IP blocks for fabric mapping (adaptability, piracy threat, performance
tolerance, resource fit), plans capacity-constrained partitions, and reports
deployment-phase carbon, aging resilience, and cross-platform comparisons.

``import ecoplan`` loads no submodule. Each public name below is imported
from its module on first access (PEP 562), so a caller, and each CLI
subcommand, pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "model": (
        "Dataset", "DatasetError", "IpProfile", "ParseError", "SchemaVersionError",
        "ScoreWeights", "ValidationError", "load_dataset", "save_dataset", "validate_weights",
    ),
    "scoring": (
        "ScoreCard", "adaptability", "composite", "exposure", "normalize_composites",
        "performance_tolerance", "piracy_threat", "redaction_ratio", "resource_fit",
        "score_dataset", "score_from_subscores",
    ),
    "partition": ("FabricBudget", "PartitionPlan", "plan_exact", "plan_greedy", "validate_plan"),
    "carbon": (
        "CarbonComparison", "CarbonParams", "CarbonReport", "Scenario", "SweepSpec",
        "app_dev_carbon", "calibrate_e_use", "calibrated_params", "compare", "deploy_carbon",
        "mean_reduction_at", "sweep", "total_cfp",
    ),
    "aging": ("FabricRegion", "LogicBlock", "RemapPlan", "SlackCurve", "min_slack", "remap",
              "slack_at"),
    "report": ("PlatformComparison", "platform_comparison"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
