"""Seeded inputs for the session benchmark.

Every generated dataset and run configuration is a pure function of the
workload name, the seed and the scale, so the same seed gives the same files.
The program under test only ever sees the files written here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WEIGHTS = {"alpha": 0.25, "beta": 0.35, "gamma": 0.2, "delta": 0.2, "mu": 0.5, "nu": 0.3, "xi": 0.2}

# Sizes at scale 1; the smoke test shrinks them with --scale.
PARTITION_IPS = 3000
EXACT_IPS = 20  # the exact planner's hard cap
ANALYSIS_IPS = 2000
CARBON_DESIGNS = 50
GRID_POINTS = 40
AGING_REGIONS = 32
AGING_BLOCKS = 500
# Share of the total area given to the fabric; greedy then admits ~40% of IPs
# because small IPs rank higher on resource fit.
BUDGET_SHARE = 0.25


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def ip_record(rng: random.Random, index: int, platform_maps: bool) -> dict:
    total_logic = rng.randint(500, 20_000)
    f_asic = round(rng.uniform(0.5, 3.0), 4)
    ip = {
        "id": f"ip{index:05d}",
        "name": f"block-{index}",
        "loc_changed": rng.randint(0, 5_000),
        "churn_window": rng.randint(1, 6),
        "confidentiality_risk": round(rng.random(), 4),
        "io_control_nets": rng.randint(0, 2_000),
        "internal_nets_and_state": rng.randint(1, 4_000),
        "logic_mapped_to_efpga": rng.randint(0, total_logic),
        "total_logic": total_logic,
        "f_max_asic": f_asic,
        "f_max_efpga": round(f_asic * rng.uniform(0.3, 1.1), 4),
        "area": rng.randint(5_000, 200_000),
    }
    if platform_maps:
        ip["f_max_fpga"] = round(f_asic * rng.uniform(0.05, 0.3), 4)
        ip["power_mw"] = {p: round(rng.uniform(lo, hi), 3) for p, lo, hi in (
            ("asic", 5, 50), ("fpga", 5_000, 40_000), ("ecologic", 20, 200))}
        ip["slack_ns"] = {p: round(rng.uniform(lo, hi), 3) for p, lo, hi in (
            ("asic", 8, 12), ("fpga", 3, 7), ("ecologic", 8, 12))}
        ip["area_mm2"] = {p: round(rng.uniform(lo, hi), 3) for p, lo, hi in (
            ("asic", 1, 10), ("fpga", 100, 500), ("ecologic", 1_000, 9_000))}
    return ip


def dataset(rng: random.Random, n: int, platform_maps: bool) -> dict:
    return {
        "schema_version": "1",
        "area_unit": "gate_eq",
        "ips": [ip_record(rng, i, platform_maps) for i in range(n)],
    }


def budget_for(data: dict) -> float:
    return float(round(BUDGET_SHARE * sum(ip["area"] for ip in data["ips"])))


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def carbon_section(rng: random.Random, designs: int, grid: int) -> dict:
    lifetimes = {1.0}  # the reduction scenario's cell
    while len(lifetimes) < grid:
        lifetimes.add(round(rng.uniform(0.1, 15.0), 2))
    # Reports print 4 significant digits, so volumes are drawn at that precision
    # to keep every grid cell distinguishable in the output.
    volumes: set[int] = set()
    while len(volumes) < grid:
        volumes.add(int(float(f"{rng.randint(100, 5_000_000):.4g}")))
    anchors = {
        f"x{d:03d}": {
            "ecologic": round(rng.uniform(20_000, 60_000), 1),
            "fpga": round(rng.uniform(1e7, 2e7), 1),
        }
        for d in range(designs)
    }
    ids = sorted(anchors)
    return {
        "base": {
            "n_vol": 1_000_000,
            "grid_intensity": 700,
            "cpu_power_per_core_w": 10,
            "cpu_cores": 8,
            "rtl_synth_hours": 2.5,
            "hls_synth_hours": 1.0,
            "config_hours": 0.5,
        },
        "anchor_lifetime_years": 1.0,
        "anchors": anchors,
        "sweep": {
            "lifetimes_years": sorted(lifetimes),
            "volumes": sorted(volumes),
            "fixed_lifetime_for_volume_sweep_years": 2.0,
        },
        "reduction_designs": ids[: max(1, len(ids) * 4 // 5)],
        "reduction_scenario": {"kind": "lifetime_years", "value": 1.0},
    }


def aging_section(rng: random.Random, n_regions: int, n_blocks: int) -> dict:
    regions = [
        {"id": f"r{i:02d}", "capacity": float(rng.randint(400, 800)),
         "health_factor": round(rng.uniform(0.5, 1.0), 3)}
        for i in range(n_regions)
    ]
    # Fill regions to about 60% so the current layout is feasible and the
    # remap has room to move blocks towards healthier regions.
    remaining = {r["id"]: 0.6 * r["capacity"] for r in regions}
    blocks = []
    for i in range(n_blocks):
        size = float(rng.randint(5, 25))
        fits = [rid for rid, room in remaining.items() if room >= size]
        if not fits:
            break
        region = rng.choice(fits)
        remaining[region] -= size
        blocks.append({"id": f"b{i:03d}", "size": size, "region": region})
    curves = {}
    for platform, start, drop in (("ecologic", 9.8, 4.4), ("fpga", 8.9, 5.8), ("asic", 9.4, 7.7)):
        temps = [25, 60, 80, 100, 130, 140]
        fractions = sorted(rng.uniform(0.0, 1.0) for _ in temps[1:-1])
        slacks = [start] + [round(start - drop * f, 3) for f in fractions] + [round(start - drop, 3)]
        curves[platform] = [[t, s] for t, s in zip(temps, slacks)]
    return {
        "curves": curves,
        "temperature_c": round(rng.uniform(60, 135), 1),
        "regions": regions,
        "blocks": blocks,
    }


def run_config(dataset_name: str, **sections) -> dict:
    config = {
        "schema_version": "1",
        "dataset": dataset_name,
        "weights": dict(WEIGHTS),
        "normalize_piracy": False,
        "partition_method": "greedy",
        "output_dir": "out",
        "formats": ["json", "csv", "markdown"],
        "compare": {"ours": "ecologic", "baseline": "fpga"},
    }
    config.update(sections)
    return config


def generate(workload: str, seed: int, scale: float, work: Path) -> dict[str, Path]:
    """Write the workload's inputs under ``work``; return config name -> path."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if workload == "partition_large":
        big = dataset(rng, _scaled(PARTITION_IPS, scale, 30), platform_maps=False)
        sub = dataset(rng, EXACT_IPS, platform_maps=False)
        _write_json(work / "soc.json", big)
        _write_json(work / "subsystem.json", sub)
        return {
            "main": _write_json(work / "soc_config.json", run_config(
                "soc.json", fabric_budget={"capacity": budget_for(big)})),
            "subsystem": _write_json(work / "subsystem_config.json", run_config(
                "subsystem.json", fabric_budget={"capacity": budget_for(sub)})),
        }
    if workload == "analysis_large":
        big = dataset(rng, _scaled(ANALYSIS_IPS, scale, 30), platform_maps=True)
        _write_json(work / "soc.json", big)
        config = run_config(
            "soc.json",
            fabric_budget={"capacity": budget_for(big)},
            carbon=carbon_section(rng, _scaled(CARBON_DESIGNS, scale, 3),
                                  _scaled(GRID_POINTS, scale, 3)),
            aging=aging_section(rng, _scaled(AGING_REGIONS, scale, 3),
                                _scaled(AGING_BLOCKS, scale, 5)),
        )
        return {"main": _write_json(work / "soc_config.json", config)}
    raise ValueError(f"unknown workload {workload!r}")


def scaling_dataset(n: int, seed: int) -> dict:
    """Dataset for the layer-scaling probe (no optional platform maps)."""
    return dataset(random.Random(f"scaling:{n}:{seed}"), n, platform_maps=False)
