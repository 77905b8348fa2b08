"""Output checks, recomputed from the generated inputs by this file alone.

Each check returns a list of problems (empty when the output is correct). The
checks read only the report fields they need, so a later change that adds
report fields still passes. Partition plans and scores are checked against
this file's own arithmetic, not against the package's.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SUBSCORES = ("adaptability", "piracy_threat", "performance_tolerance", "resource_fit",
             "composite", "normalized")


def composites(data: dict, weights: dict) -> dict[str, float]:
    """Composite score per IP id, from the formulas in the README."""
    ips = data["ips"]
    max_loc = max(ip["loc_changed"] for ip in ips)
    a_min = min(ip["area"] for ip in ips)
    a_max = max(ip["area"] for ip in ips)
    out = {}
    for ip in ips:
        adapt = math.log1p(ip["loc_changed"]) / math.log1p(max_loc) if max_loc else 0.0
        expo = min(ip["io_control_nets"] / ip["internal_nets_and_state"], 1.0)
        redact = ip["logic_mapped_to_efpga"] / ip["total_logic"]
        threat = (weights["mu"] * ip["confidentiality_risk"] + weights["nu"] * expo
                  + weights["xi"] * redact)
        perf = min(ip["f_max_efpga"] / ip["f_max_asic"], 1.0)
        fit = 1.0 if a_max == a_min else (a_max - ip["area"]) / (a_max - a_min)
        out[ip["id"]] = (weights["alpha"] * adapt + weights["beta"] * threat
                         + weights["gamma"] * perf + weights["delta"] * fit)
    return out


def check_score(report: dict, data: dict, weights: dict) -> list[str]:
    cards = report.get("cards")
    if not isinstance(cards, list):
        return ["score: no 'cards' list"]
    problems = []
    ids = [card.get("design") for card in cards]
    if sorted(ids) != sorted(ip["id"] for ip in data["ips"]):
        problems.append("score: cards do not cover the dataset exactly once")
    expected = composites(data, weights)
    previous = math.inf
    for card in cards:
        for key in SUBSCORES:
            value = card.get(key)
            if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                problems.append(f"score: {card.get('design')} {key}={value!r} outside [0, 1]")
        comp = card.get("composite")
        if isinstance(comp, (int, float)):
            if comp > previous:
                problems.append(f"score: composite rises at {card.get('design')}")
            previous = comp
            want = expected.get(card.get("design"))
            # Reports print 4 significant digits.
            if want is not None and abs(comp - want) > 1e-3 * max(want, 1e-12):
                problems.append(f"score: {card.get('design')} composite {comp} != {want:.6g}")
    return problems[:20]


def check_partition(report: dict, data: dict, weights: dict, capacity: float) -> list[str]:
    """Feasible, disjoint, covering and maximal, with this file's own sums."""
    efpga, asic = report.get("efpga_ips"), report.get("asic_ips")
    if not isinstance(efpga, list) or not isinstance(asic, list):
        return ["partition: plan lists missing"]
    chosen, rest = set(efpga), set(asic)
    problems = []
    if chosen & rest:
        problems.append(f"partition: {len(chosen & rest)} IPs on both sides")
    area = {ip["id"]: ip["area"] for ip in data["ips"]}
    if chosen | rest != set(area) or len(efpga) + len(asic) != len(area):
        problems.append("partition: plan does not cover the dataset exactly once")
    used = math.fsum(area[i] for i in chosen if i in area)
    slack = 1e-9 * capacity
    if used > capacity + slack:
        problems.append(f"partition: used area {used} exceeds capacity {capacity}")
    left = capacity - used
    score = composites(data, weights)
    blocked = [i for i in rest if i in area and score[i] > 0 and area[i] <= left - slack]
    if blocked:
        problems.append(f"partition: not maximal, {sorted(blocked)[:5]} fit in {left}")
    return problems


def check_carbon(report: dict, carbon: dict) -> list[str]:
    cells = report.get("cells")
    if not isinstance(cells, list):
        return ["carbon: no 'cells' list"]
    sweep = carbon["sweep"]
    grid = {("lifetime_years", float(y)) for y in sweep["lifetimes_years"]}
    grid |= {("volume", float(v)) for v in sweep["volumes"]}
    want = {(d, p) for d, platforms in carbon["anchors"].items() for p in platforms}
    seen: dict[tuple[str, str], list] = {}
    problems = []
    for cell in cells:
        key = (cell.get("design"), cell.get("platform"))
        seen.setdefault(key, []).append((cell.get("scenario_kind"), cell.get("scenario_value")))
        kg = cell.get("kg_co2")
        if not isinstance(kg, (int, float)) or not kg > 0:
            problems.append(f"carbon: {key} has kg_co2={kg!r}")
    if set(seen) != want:
        problems.append("carbon: design x platform rows differ from the anchors")
    # Scenario values are printed at 4 significant digits.
    rounded = sorted((kind, float(f"{value:.4g}")) for kind, value in grid)
    for key, got in seen.items():
        if sorted(got) != rounded:
            problems.append(f"carbon: {key} covers {len(got)} cells, the grid has {len(rounded)}")
    return problems[:20]


def check_compare(report: dict, data: dict) -> list[str]:
    aggregates, series = report.get("aggregates"), report.get("series")
    if not isinstance(aggregates, dict) or not isinstance(series, list):
        return ["compare: aggregates or series missing"]
    metrics = ("power_mw", "frequency_ghz", "slack_ns", "area_mm2")
    problems = [f"compare: no aggregate for {m}" for m in metrics if m not in aggregates]
    if len(series) != len(metrics) * 2 * len(data["ips"]):
        problems.append(f"compare: {len(series)} series points for {len(data['ips'])} IPs")
    return problems


def check_aging(report: dict, aging: dict) -> list[str]:
    slack = report.get("slack_ns")
    if not isinstance(slack, dict) or set(slack) != set(aging["curves"]):
        return ["aging: slack_ns does not list every curve's platform"]
    problems = []
    remap = report.get("remap")
    if aging.get("regions") and aging.get("blocks"):
        if not isinstance(remap, dict):
            return ["aging: remap missing"]
        assignment = remap.get("assignment", {})
        if set(assignment) != {b["id"] for b in aging["blocks"]}:
            problems.append("aging: remap does not place every block")
        capacity = {r["id"]: r["capacity"] for r in aging["regions"]}
        load = dict.fromkeys(capacity, 0.0)
        for block in aging["blocks"]:
            region = assignment.get(block["id"])
            if region not in load:
                problems.append(f"aging: block {block['id']} in unknown region {region!r}")
                continue
            load[region] += block["size"]
        problems += [f"aging: region {r} overloaded" for r in load if load[r] > capacity[r]]
        if not remap.get("min_slack_after", -1) >= remap.get("min_slack_before", 0):
            problems.append("aging: remap lowered the minimum slack")
    return problems


def check_invocation(step, files: dict[str, bytes], inputs: dict) -> list[str]:
    """Semantic checks on one invocation's first output.

    ``inputs`` holds the parsed config and dataset per config key.
    """
    report_json = files.get(f"{step.command}.json")
    try:
        report = json.loads(report_json)
    except (TypeError, ValueError) as exc:
        return [f"{step.label}: {step.command}.json does not parse: {exc}"]
    config, data = inputs[step.config]
    if step.command == "score":
        return check_score(report, data, config["weights"])
    if step.command == "partition":
        return check_partition(report, data, config["weights"],
                               config["fabric_budget"]["capacity"])
    if step.command == "carbon":
        return check_carbon(report, config["carbon"])
    if step.command == "compare":
        return check_compare(report, data)
    if step.command == "aging":
        return check_aging(report, config["aging"])
    return [f"{step.label}: no check for report {step.command!r}"]


def read_outputs(out_dir: Path, names: tuple[str, ...]) -> tuple[dict[str, bytes], list[str]]:
    files, problems = {}, []
    for name in names:
        try:
            files[name] = (out_dir / name).read_bytes()
        except OSError:
            problems.append(f"missing output {out_dir.name}/{name}")
    return files, problems
