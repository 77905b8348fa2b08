"""Deployment-phase carbon model, lifetime/volume sweeps, and reduction stats.

The model charges only deployment emissions (the hardware is manufactured
once; embodied carbon is out of scope):

    deploy = n_vol * grid_intensity * (e_use_per_hour_kwh * lifetime_hours)
             + app_dev_carbon

where app_dev_carbon is the CPU energy spent on RTL/HLS synthesis and
bitstream generation, converted through the same grid intensity. The runtime
energy rate is usually not measured directly; :func:`calibrate_e_use` inverts
the model against a known deployment-cost anchor cell, after which the sweep
engine extrapolates linearly across lifetimes and volumes. ``ecoplan carbon``
runs its config section through :func:`run_section`.

Note on units: grid intensity is stored exactly as configured. The bundled
demo uses 700 (following the reference parameter table) even though a
physically typical grid value is ~0.7 kg CO2/kWh; the anomaly is documented
rather than silently corrected, and every downstream figure scales with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Sequence

from .model import (_INT, _REAL, PLATFORMS, ValidationError, _check_keys, _fields_of, _mean,
                    _require_finite, _require_number, _require_text, _require_unique)

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class CarbonParams:
    """Deployment parameters for one design on one platform.

    Defaults follow the documented deployment parameter set (1M units,
    15-year runtime, grid intensity 700, 8 cores at 10 W, 2.5 h RTL + 1.0 h
    HLS synthesis); only the runtime energy rate has no default because it is
    derived, usually via :func:`calibrate_e_use`. Sweeps override the
    lifetime per scenario, so the 15-year default only matters when no sweep
    is involved. With no units deployed only :func:`app_dev_carbon` remains.
    """

    e_use_per_hour_kwh: float
    n_vol: int = 1_000_000
    lifetime_hours: float = 131_400.0
    grid_intensity: float = 700.0
    cpu_power_per_core_w: float = 10.0
    cpu_cores: int = 8
    rtl_synth_hours: float = 2.5
    hls_synth_hours: float = 1.0
    config_hours: float = 0.0

    def __post_init__(self) -> None:
        _require_number(self.n_vol, _INT, 1, False, None, "n_vol")
        _require_number(self.cpu_cores, _INT, 1, False, None, "cpu_cores")
        for fname in ("lifetime_hours", "grid_intensity", "e_use_per_hour_kwh",
                      "cpu_power_per_core_w"):
            _require_number(getattr(self, fname), _REAL, 0, True, None, fname)
        for fname in ("rtl_synth_hours", "hls_synth_hours", "config_hours"):
            _require_number(getattr(self, fname), _REAL, 0, False, None, fname)
        if not math.isfinite(app_dev_carbon(self)):  # inf, or NaN from inf * 0 hours
            raise ValidationError("app-dev carbon from cpu_power_per_core_w, cpu_cores, "
                                  "rtl_synth_hours, hls_synth_hours, config_hours and "
                                  "grid_intensity must be finite")


class Scenario(NamedTuple):
    """One sweep cell coordinate: kind is 'lifetime_years' or 'volume'."""

    kind: str
    value: float


@dataclass(frozen=True)
class SweepSpec:
    """Grid for the sweep: lifetimes at the base volume, volumes at a fixed
    lifetime. It alone orders the cells: the lifetime cells ascending, then
    the volume cells ascending. No list repeats an entry, compared as floats
    (``1`` and ``1.0`` repeat)."""

    lifetimes_years: tuple[float, ...]
    volumes: tuple[int, ...]
    fixed_lifetime_for_volume_sweep_years: float

    def __post_init__(self) -> None:
        for name, types, low, strict in (("lifetimes_years", _REAL, 0, True),
                                         ("volumes", _INT, 1, False)):
            what = f"carbon sweep {name}"
            entries = [_require_number(entry, types, low, strict, None, what)
                       for entry in getattr(self, name)]
            if not entries:
                raise ValidationError(f"{what} must be non-empty")
            _require_unique(entries, f"{what} repeats %r")
        _require_number(self.fixed_lifetime_for_volume_sweep_years, _REAL, 0, True, None,
                        "carbon sweep fixed_lifetime_for_volume_sweep_years")

    @cached_property
    def _grid(self) -> dict[Scenario, tuple[int | None, float]]:
        """Each cell key in sweep order: its volume (None: the base volume) and lifetime in
        hours. Worked out by the first :func:`sweep` of this spec, which raises if a lifetime
        in hours is not finite, and shared by every later one."""
        what = "carbon sweep lifetimes_years in hours"
        grid = {Scenario("lifetime_years", y): (None, _require_finite(y * HOURS_PER_YEAR, what))
                for y in sorted(map(float, self.lifetimes_years))}
        fixed_hours = _require_finite(self.fixed_lifetime_for_volume_sweep_years * HOURS_PER_YEAR,
                                      "carbon sweep fixed_lifetime_for_volume_sweep_years in hours")
        grid.update((Scenario("volume", float(volume)), (volume, fixed_hours))
                    for volume in sorted(map(int, self.volumes)))
        return grid


@dataclass(frozen=True)
class CarbonReport:
    """Per design x platform sweep results, in kg CO2 per scenario cell."""

    design_id: str
    platform: str
    cells: Mapping[Scenario, float]


@dataclass(frozen=True)
class CarbonComparison:
    """Per-cell reductions 1 - ours/baseline for one design."""

    design_id: str
    cells: Mapping[Scenario, float]
    mean_reduction: float


def app_dev_carbon(params: CarbonParams) -> float:
    """Application-development carbon: CPU synthesis/configuration energy
    (W * cores * hours -> kWh) times the grid intensity."""
    hours = params.rtl_synth_hours + params.hls_synth_hours + params.config_hours
    kwh = params.cpu_power_per_core_w * params.cpu_cores * hours / 1000.0
    return kwh * params.grid_intensity


def deploy_carbon(params: CarbonParams) -> float:
    """Deployment carbon: runtime term plus the app-dev constant.

    Exactly linear in n_vol, lifetime_hours, and the energy rate, with
    app_dev_carbon as the fixed offset. Raises ValidationError if it is not finite.
    """
    carbon = _runtime_carbon(params, params.n_vol, params.lifetime_hours) + app_dev_carbon(params)
    if not math.isfinite(carbon):  # inf, or NaN from inf times a rate * hours that underflowed
        raise ValidationError("deployment carbon from n_vol, grid_intensity, "
                              "e_use_per_hour_kwh and lifetime_hours must be finite")
    return carbon


def _runtime_carbon(params: CarbonParams, n_vol: int, lifetime_hours: float) -> float:
    return n_vol * params.grid_intensity * (params.e_use_per_hour_kwh * lifetime_hours)


def total_cfp(per_app: Sequence[tuple[float, CarbonParams]]) -> float:
    """Total footprint over applications: sum of per-application deployment
    carbon, with each entry's lifetime (hours) substituted into its params."""
    if not per_app:
        raise ValidationError("total_cfp needs at least one application entry")
    try:
        return math.fsum(deploy_carbon(replace(params, lifetime_hours=lifetime_hours))
                         for lifetime_hours, params in per_app)
    except OverflowError:
        raise ValidationError("total_cfp: the sum of deployment carbon overflows") from None


def calibrate_e_use(anchor_cfp: float, params: CarbonParams) -> float:
    """Invert the model: the energy rate for which deploy_carbon(params)
    reproduces ``anchor_cfp`` exactly.

    The rate field of ``params`` is ignored (that is the unknown). The anchor
    must exceed the fixed app-dev floor, and the rate must be a finite number > 0.
    """
    floor = app_dev_carbon(params)
    if not anchor_cfp > floor:
        raise ValidationError(
            f"infeasible anchor: {anchor_cfp} kg does not exceed the app-dev floor {floor} kg"
        )
    runtime = params.n_vol * params.grid_intensity * params.lifetime_hours
    rate = (anchor_cfp - floor) / runtime if runtime > 0 else 0.0  # 0: runtime underflowed
    return _require_number(rate, _REAL, 0, True, None, f"e_use_per_hour_kwh from the anchor "
                           f"{anchor_cfp} kg over n_vol * grid_intensity * lifetime_hours")


def calibrated_params(anchor_cfp: float, params: CarbonParams) -> CarbonParams:
    """Convenience: params with the energy rate set by calibrate_e_use."""
    return replace(params, e_use_per_hour_kwh=calibrate_e_use(anchor_cfp, params))


def _finite(cells: Mapping[Scenario, float], what: str) -> None:
    """One pass when every cell is finite; else an error naming the first that is not."""
    if not all(map(math.isfinite, cells.values())):
        scenario = next(s for s, value in cells.items() if not math.isfinite(value))
        raise ValidationError(f"{what} is not finite in cell {scenario}")


def sweep(spec: SweepSpec, base: CarbonParams, design_id: str, platform: str) -> CarbonReport:
    """Evaluate the sweep grid for one design on one platform.

    Lifetime cells run at the base volume; volume cells run at the spec's
    fixed lifetime. Cells scale exactly linearly along both axes. Each cell
    is ``deploy_carbon`` of ``base`` with that volume and lifetime, computed
    without building its params: the spec already holds positive lifetimes
    and volumes, so what can still fail is a lifetime in hours or a cell that
    overflows to infinity (a huge anchor rate times a long lifetime). The
    cell keys and lifetimes in hours are worked out once per spec, not once
    per design and platform.
    """
    app_dev = app_dev_carbon(base)
    cells = {scenario: _runtime_carbon(base, base.n_vol if volume is None else volume, hours)
             + app_dev for scenario, (volume, hours) in spec._grid.items()}
    _finite(cells, f"carbon of design {design_id!r} on {platform}")
    return CarbonReport(design_id=design_id, platform=platform, cells=cells)


def compare(ours: CarbonReport, baseline: CarbonReport) -> CarbonComparison:
    """Per-cell reduction 1 - ours/baseline over matching scenario grids.

    Negative values mean our platform emits more than the baseline in that
    cell (inversions are reported, not suppressed).
    """
    if set(ours.cells) != set(baseline.cells):
        raise ValidationError(
            f"grid mismatch between {ours.design_id}/{ours.platform} "
            f"and {baseline.design_id}/{baseline.platform}"
        )
    reductions: dict[Scenario, float] = {}
    for scenario, base_value in baseline.cells.items():
        if base_value <= 0:
            raise ValidationError(f"baseline cell {scenario} must be > 0, got {base_value}")
        reductions[scenario] = 1.0 - ours.cells[scenario] / base_value
    _finite(reductions, f"reduction of design {ours.design_id!r}")
    mean = _mean(reductions.values(), f"mean reduction of design {ours.design_id!r} overflows")
    return CarbonComparison(design_id=ours.design_id, cells=reductions, mean_reduction=mean)


def mean_reduction_at(
    comparisons: Mapping[str, CarbonComparison], scenario: Scenario, design_ids: Sequence[str]
) -> float:
    """Mean reduction for one scenario cell over a declared design subset."""
    if not design_ids:
        raise ValidationError("design subset for the mean reduction must be non-empty")
    for design_id in design_ids:
        if design_id not in comparisons:
            raise ValidationError(f"no comparison available for design {design_id!r}")
        if scenario not in comparisons[design_id].cells:
            raise ValidationError(f"design {design_id!r} has no cell for {scenario}")
    values = [comparisons[design_id].cells[scenario] for design_id in design_ids]
    return _mean(values, f"mean reduction at {scenario.kind} {scenario.value} overflows")


def run_section(section: Mapping[str, Any]) -> tuple[
        list[CarbonReport], dict[str, CarbonComparison], float | None, Sequence[str]]:
    """Sweep each calibrated anchor of a checked ``carbon`` section and compare the paired
    designs. Returns the reports, the comparisons by design, the mean reduction at the scenario
    over ``reduction_designs`` (default: every compared design; None for none) and those designs."""
    base = CarbonParams(
        lifetime_hours=_require_number(section["anchor_lifetime_years"] * HOURS_PER_YEAR, _REAL,
                                       0, True, None, "carbon anchor_lifetime_years in hours"),
        e_use_per_hour_kwh=1.0,  # placeholder; replaced by calibration
        **_check_keys(section["base"], [f for f in _fields_of(CarbonParams)[0] if f not in (
            "e_use_per_hour_kwh", "lifetime_hours")], "carbon base"),  # not base keys
    )
    sweep_raw = section["sweep"]
    spec = SweepSpec(tuple(sweep_raw["lifetimes_years"]), tuple(sweep_raw["volumes"]),
                     sweep_raw["fixed_lifetime_for_volume_sweep_years"])

    anchors = section["anchors"]
    if not anchors:
        raise ValidationError("carbon anchors must map design -> platform -> kg")
    reports: list[CarbonReport] = []
    comparisons: dict[str, CarbonComparison] = {}
    for design_id in sorted(anchors):
        _require_text(design_id, "carbon anchors design")
        by_platform: dict[str, CarbonReport] = {}
        platform_anchors = _check_keys(anchors[design_id], None, f"carbon anchors {design_id!r}")
        if not platform_anchors:
            raise ValidationError(f"carbon anchors {design_id!r} must map platform -> kg")
        for platform in sorted(platform_anchors):
            if platform not in PLATFORMS:
                raise ValidationError(f"carbon anchors: unknown platform {platform!r} "
                                      f"for design {design_id!r}")
            what = f"carbon anchors {design_id!r} {platform}"
            calibrated = calibrated_params(_require_finite(platform_anchors[platform], what), base)
            by_platform[platform] = sweep(spec, calibrated, design_id, platform)
        reports.extend(by_platform.values())
        if "ecologic" in by_platform and "fpga" in by_platform:
            comparisons[design_id] = compare(by_platform["ecologic"], by_platform["fpga"])

    designs = section["reduction_designs"]
    designs = sorted(comparisons) if designs is None else designs
    scenario = Scenario(**section["reduction_scenario"])
    if scenario not in spec._grid:  # the cell keys, which every report holds
        raise ValidationError(f"carbon reduction_scenario {scenario.kind} {scenario.value} "
                              "is not a cell of the sweep grid")
    mean = mean_reduction_at(comparisons, scenario, designs) if designs else None
    return reports, comparisons, mean, designs
