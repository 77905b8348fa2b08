"""Smoke check: the benchmark runs end to end at tiny sizes.

It checks that the harness works, not how fast anything is, and stays out of
the tier-1 suite. Run from the repository root:

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Scaling-probe names carry the input size, which --scale shrinks.
SIZED = re.compile(r"\.n\d+$")


def run(cwd: Path, workload: str, trace: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", trace, "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_and_outputs_check(workload):
    proc = run(ROOT, workload, "all")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        if SIZED.search(spec["name"]):
            continue
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0, spec["name"]
    sized = {SIZED.sub("", name) for name in metrics if SIZED.search(name)}
    assert sized == {SIZED.sub("", m["name"]) for m in SPEC["per_layer"] if SIZED.search(m["name"])}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
