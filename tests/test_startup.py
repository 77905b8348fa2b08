"""What ``import ecoplan``, ``import ecoplan.cli`` and each subcommand load.

Every check runs in a fresh interpreter, so a module that this test process
has already imported can neither hide a missing import nor add an extra one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecoplan
from ecoplan.fixtures import fixture_path

SRC = str(Path(ecoplan.__file__).resolve().parents[1])
CLI_MODULES = {"ecoplan", "ecoplan.cli", "ecoplan.model", "ecoplan.report"}
PRINT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ecoplan')))"
)
# the public names of the package; none may go missing
PUBLIC_NAMES = {
    "CarbonComparison", "CarbonParams", "CarbonReport", "Dataset", "DatasetError",
    "FabricBudget", "FabricRegion", "IpProfile", "LogicBlock", "ParseError", "PartitionPlan",
    "PlatformComparison", "RemapPlan", "Scenario", "SchemaVersionError", "ScoreCard",
    "ScoreWeights", "SlackCurve", "SweepSpec", "ValidationError", "adaptability",
    "app_dev_carbon", "calibrate_e_use", "calibrated_params", "compare", "composite",
    "deploy_carbon", "exposure", "load_dataset", "mean_reduction_at", "min_slack",
    "normalize_composites", "performance_tolerance", "piracy_threat", "plan_exact",
    "plan_greedy", "platform_comparison", "redaction_ratio", "remap", "resource_fit",
    "save_dataset", "score_dataset", "score_from_subscores", "slack_at", "sweep", "total_cfp",
    "validate_plan", "validate_weights",
}
RUN_MAIN = "import sys\nfrom ecoplan.cli import main\nif main(sys.argv[1:]) != 0: sys.exit(1)"


def run_python(code: str, *args: object) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True
    )


def loaded_after(code: str, *args: object) -> set[str]:
    """The ``ecoplan`` modules loaded once ``code`` has run in a new interpreter."""
    child = run_python(f"{code}\n{PRINT_LOADED}", *args)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_import_ecoplan_loads_no_submodule():
    assert loaded_after("import ecoplan") == {"ecoplan"}


def test_import_cli_loads_only_model_and_report():
    assert loaded_after("import ecoplan.cli") == CLI_MODULES


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["score"], {"scoring"}),
        (["partition", "--method", "exact"], {"scoring", "partition"}),
        (["carbon"], {"carbon"}),
        (["compare"], set()),
        (["aging", "--temperature", "130"], {"aging"}),
    ],
    ids=["score", "partition", "carbon", "compare", "aging"],
)
def test_readme_demo_command_loads_exactly_its_layers(tmp_path, argv, layers):
    config = fixture_path("demo_config.json")
    # only a CSV cell that needs quoting imports csv, and no demo cell does
    run_without_csv = f"{RUN_MAIN}\nassert 'csv' not in sys.modules, 'csv was imported'"
    loaded = loaded_after(
        run_without_csv, argv[0], "--config", config, "--out", tmp_path, *argv[1:]
    )
    assert loaded == CLI_MODULES | {f"ecoplan.{layer}" for layer in layers}
    assert any(tmp_path.iterdir())


def test_every_public_name_resolves_and_unknown_names_raise():
    code = (
        "import importlib, ecoplan\n"
        "for name, module in ecoplan._MODULE_OF.items():\n"
        "    owner = importlib.import_module('ecoplan.' + module)\n"
        "    assert getattr(ecoplan, name) is getattr(owner, name), name\n"
        f"assert set(ecoplan.__all__) == {{'__version__', *{sorted(PUBLIC_NAMES)!r}}}\n"
        "assert set(ecoplan.__all__) <= set(dir(ecoplan))\n"
        "try:\n"
        "    ecoplan.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError for an unknown name')\n"
        "namespace = {}\n"
        "exec('from ecoplan import *', namespace)\n"
        "assert set(ecoplan.__all__) <= set(namespace)\n"
    )
    child = run_python(code)
    assert child.returncode == 0, child.stderr
