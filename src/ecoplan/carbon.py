"""Deployment-phase carbon model, lifetime/volume sweeps, and reduction stats.

The model charges only deployment emissions (the hardware is manufactured
once; embodied carbon is out of scope):

    deploy = n_vol * grid_intensity * (e_use_per_hour_kwh * lifetime_hours)
             + app_dev_carbon

where app_dev_carbon is the CPU energy spent on RTL/HLS synthesis and
bitstream generation, converted through the same grid intensity. The runtime
energy rate is usually not measured directly; :func:`calibrate_e_use` inverts
the model against a known deployment-cost anchor cell, after which the sweep
engine extrapolates linearly across lifetimes and volumes.

Note on units: grid intensity is stored exactly as configured. The bundled
demo uses 700 (following the reference parameter table) even though a
physically typical grid value is ~0.7 kg CO2/kWh; the anomaly is documented
rather than silently corrected, and every downstream figure scales with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

from .model import (_INT, _REAL, ValidationError, _require_finite, _require_number,
                    _require_unique)

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class CarbonParams:
    """Deployment parameters for one design on one platform.

    Defaults follow the documented deployment parameter set (1M units,
    15-year runtime, grid intensity 700, 8 cores at 10 W, 2.5 h RTL + 1.0 h
    HLS synthesis); only the runtime energy rate has no default because it is
    derived, usually via :func:`calibrate_e_use`. Sweeps override the
    lifetime per scenario, so the 15-year default only matters when no sweep
    is involved.

    ``prototype`` permits n_vol == 0 (development-only scenarios where the
    runtime term vanishes and only app_dev_carbon remains).
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
    prototype: bool = False

    def __post_init__(self) -> None:
        _require_number(self.n_vol, _INT, 0 if self.prototype else 1, False, None, "n_vol")
        _require_number(self.cpu_cores, _INT, 1, False, None, "cpu_cores")
        for fname in ("lifetime_hours", "grid_intensity", "e_use_per_hour_kwh",
                      "cpu_power_per_core_w"):
            _require_number(getattr(self, fname), _REAL, 0, True, None, fname)
        for fname in ("rtl_synth_hours", "hls_synth_hours", "config_hours"):
            _require_number(getattr(self, fname), _REAL, 0, False, None, fname)


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
    def _grid(self) -> tuple[tuple[Scenario, ...], list[float], float, list[int]]:
        """The cell keys in sweep order, each lifetime in hours and each
        volume in that order, and the volume sweep's lifetime in hours: worked
        out by the first :func:`sweep` of this spec, which raises if a
        lifetime in hours is not finite, and shared by every later one."""
        lifetimes = sorted(map(float, self.lifetimes_years))
        volumes = sorted(map(int, self.volumes))
        what = "carbon sweep lifetimes_years in hours"
        lifetime_hours = [_require_finite(years * HOURS_PER_YEAR, what) for years in lifetimes]
        fixed_hours = _require_finite(self.fixed_lifetime_for_volume_sweep_years * HOURS_PER_YEAR,
                                      "carbon sweep fixed_lifetime_for_volume_sweep_years in hours")
        keys = (*(Scenario("lifetime_years", years) for years in lifetimes),
                *(Scenario("volume", float(volume)) for volume in volumes))
        return keys, lifetime_hours, fixed_hours, volumes


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
    app_dev_carbon as the fixed offset.
    """
    return _runtime_carbon(params, params.n_vol, params.lifetime_hours) + app_dev_carbon(params)


def _runtime_carbon(params: CarbonParams, n_vol: int, lifetime_hours: float) -> float:
    return n_vol * params.grid_intensity * (params.e_use_per_hour_kwh * lifetime_hours)


def total_cfp(per_app: Sequence[tuple[float, CarbonParams]]) -> float:
    """Total footprint over applications: sum of per-application deployment
    carbon, with each entry's lifetime (hours) substituted into its params."""
    if not per_app:
        raise ValidationError("total_cfp needs at least one application entry")
    return math.fsum(
        deploy_carbon(replace(params, lifetime_hours=lifetime_hours))
        for lifetime_hours, params in per_app
    )


def calibrate_e_use(anchor_cfp: float, params: CarbonParams) -> float:
    """Invert the model: the energy rate for which deploy_carbon(params)
    reproduces ``anchor_cfp`` exactly.

    The rate field of ``params`` is ignored (that is the unknown). The anchor
    must exceed the fixed app-dev floor, and the runtime term needs a real
    deployment (n_vol >= 1).
    """
    if params.n_vol < 1:
        raise ValidationError("calibration requires n_vol >= 1")
    floor = app_dev_carbon(params)
    if not anchor_cfp > floor:
        raise ValidationError(
            f"infeasible anchor: {anchor_cfp} kg does not exceed the app-dev floor {floor} kg"
        )
    return (anchor_cfp - floor) / (params.n_vol * params.grid_intensity * params.lifetime_hours)


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
    keys, lifetime_hours, fixed_hours, volumes = spec._grid
    app_dev = app_dev_carbon(base)
    values = [_runtime_carbon(base, base.n_vol, hours) + app_dev for hours in lifetime_hours]
    values += [_runtime_carbon(base, volume, fixed_hours) + app_dev for volume in volumes]
    cells = dict(zip(keys, values))
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
    try:
        mean = math.fsum(reductions.values()) / len(reductions)
    except OverflowError:
        raise ValidationError(f"mean reduction of design {ours.design_id!r} overflows") from None
    return CarbonComparison(design_id=ours.design_id, cells=reductions, mean_reduction=mean)


def mean_reduction_at(
    comparisons: Mapping[str, CarbonComparison], scenario: Scenario, design_ids: Sequence[str]
) -> float:
    """Mean reduction for one scenario cell over a declared design subset."""
    if not design_ids:
        raise ValidationError("design subset for the mean reduction must be non-empty")
    values = []
    for design_id in design_ids:
        if design_id not in comparisons:
            raise ValidationError(f"no comparison available for design {design_id!r}")
        cells = comparisons[design_id].cells
        if scenario not in cells:
            raise ValidationError(f"design {design_id!r} has no cell for {scenario}")
        values.append(cells[scenario])
    return math.fsum(values) / len(values)
