"""Temperature-dependent timing slack and remapping away from degraded regions.

Slack curves are piecewise-linear over strictly increasing temperatures; no
extrapolation is performed outside the knot range. Region degradation is
abstracted as a multiplicative health factor in (0, 1] applied to the base
slack of whatever logic the region hosts (transistor-level aging physics is
out of scope). The remap planner moves logic blocks toward healthier regions
and guarantees the minimum effective slack never gets worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import ValidationError, _require_finite


@dataclass(frozen=True)
class SlackCurve:
    """Piecewise-linear (temperature degC, slack ns) curve for one platform."""

    platform: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        where = f"curve {self.platform!r}"
        if not isinstance(self.points, (list, tuple)) or not all(
            isinstance(point, (list, tuple)) and len(point) == 2 for point in self.points
        ):
            raise ValidationError(f"{where} points must be [temperature, slack] pairs")
        pts = tuple(
            (_require_finite(t, f"{where} temperature"), _require_finite(s, f"{where} slack"))
            for t, s in self.points
        )
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValidationError(f"curve {self.platform!r} needs at least 2 points")
        for _, slack in pts:
            if slack < 0:
                raise ValidationError(f"curve {self.platform!r} has negative slack {slack}")
        temps = [t for t, _ in pts]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ValidationError(
                f"curve {self.platform!r} temperatures must be strictly increasing"
            )

    @property
    def t_min(self) -> float:
        return self.points[0][0]

    @property
    def t_max(self) -> float:
        return self.points[-1][0]


@dataclass(frozen=True)
class FabricRegion:
    """A fabric region with a logic capacity and a health factor in (0, 1]
    that scales the base slack of hosted logic (1 = pristine)."""

    id: str
    capacity: float
    health_factor: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("region id must be non-empty")
        if _require_finite(self.capacity, f"region {self.id!r} capacity") <= 0:
            raise ValidationError(f"region {self.id!r} capacity must be > 0")
        health = _require_finite(self.health_factor, f"region {self.id!r} health_factor")
        if not 0.0 < health <= 1.0:
            raise ValidationError(f"region {self.id!r} health_factor must lie in (0, 1]")


@dataclass(frozen=True)
class LogicBlock:
    """A mapped logic block: its size (region capacity units) and the region
    currently hosting it."""

    id: str
    size: float
    region: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("block id must be non-empty")
        if _require_finite(self.size, f"block {self.id!r} size") <= 0:
            raise ValidationError(f"block {self.id!r} size must be > 0")
        if not self.region:
            raise ValidationError(f"block {self.id!r} must name its current region")


@dataclass(frozen=True)
class RemapPlan:
    assignment: Mapping[str, str]
    min_slack_before: float
    min_slack_after: float


def slack_at(curve: SlackCurve, temp: float) -> float:
    """Interpolate the curve at ``temp``; exact at knots, no extrapolation."""
    if not math.isfinite(float(temp)):
        raise ValidationError(f"temperature must be finite, got {temp!r}")
    if temp < curve.t_min or temp > curve.t_max:
        raise ValidationError(
            f"temperature {temp} outside curve {curve.platform!r} "
            f"range [{curve.t_min}, {curve.t_max}]; extrapolation is not supported"
        )
    points = curve.points
    for knot_temp, knot_slack in points:
        if temp == knot_temp:
            return knot_slack
    for (t0, s0), (t1, s1) in zip(points, points[1:]):
        if t0 < temp < t1:
            frac = (temp - t0) / (t1 - t0)
            return s0 + frac * (s1 - s0)
    raise AssertionError("unreachable: temp inside range but no segment found")


def _region_index(regions: Sequence[FabricRegion]) -> dict[str, FabricRegion]:
    index: dict[str, FabricRegion] = {}
    for region in regions:
        if region.id in index:
            raise ValidationError(f"duplicate region id {region.id!r}")
        index[region.id] = region
    if not index:
        raise ValidationError("need at least one region")
    return index


def min_slack(
    assignment: Mapping[str, str],
    regions: Sequence[FabricRegion],
    base_curve: SlackCurve,
    temp: float,
) -> float:
    """Minimum over blocks of effective slack = slack_at(temp) * host health."""
    if not assignment:
        raise ValidationError("assignment must map at least one block")
    index = _region_index(regions)
    base = slack_at(base_curve, temp)
    worst = math.inf
    for block_id, region_id in assignment.items():
        if region_id not in index:
            raise ValidationError(
                f"unassigned block: {block_id!r} maps to unknown region {region_id!r}"
            )
        worst = min(worst, base * index[region_id].health_factor)
    return worst


def _check_loads(
    blocks: Sequence[LogicBlock],
    assignment: Mapping[str, str],
    index: Mapping[str, FabricRegion],
) -> None:
    loads: dict[str, float] = {rid: 0.0 for rid in index}
    for block in blocks:
        loads[assignment[block.id]] += block.size
    for rid, load in loads.items():
        if load > index[rid].capacity:
            raise ValidationError(
                f"region {rid!r} overloaded: {load} assigned against capacity "
                f"{index[rid].capacity}"
            )


def remap(
    blocks: Sequence[LogicBlock],
    regions: Sequence[FabricRegion],
    base_curve: SlackCurve,
    temp: float,
) -> RemapPlan:
    """Move blocks toward healthier regions; never worsen the minimum slack.

    Greedy: blocks in decreasing size order are placed into the healthiest
    region with remaining capacity. If the greedy layout does not improve the
    minimum effective slack, or cannot place every block, the original
    assignment is returned unchanged.
    """
    if not blocks:
        raise ValidationError("need at least one block")
    ids = [b.id for b in blocks]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate block ids")
    index = _region_index(regions)

    current = {b.id: b.region for b in blocks}
    for block in blocks:
        if block.region not in index:
            raise ValidationError(
                f"block {block.id!r} currently assigned to unknown region {block.region!r}"
            )
    _check_loads(blocks, current, index)

    if sum(b.size for b in blocks) > sum(r.capacity for r in index.values()):
        raise ValidationError(
            "infeasible capacity: total block size exceeds total region capacity"
        )

    before = min_slack(current, regions, base_curve, temp)

    remaining = {rid: region.capacity for rid, region in index.items()}
    by_health = sorted(index.values(), key=lambda r: (-r.health_factor, r.id))
    candidate: dict[str, str] = {}
    for block in sorted(blocks, key=lambda b: (-b.size, b.id)):
        target = next(
            (r.id for r in by_health if remaining[r.id] >= block.size), None
        )
        if target is None:
            return RemapPlan(assignment=dict(current), min_slack_before=before,
                             min_slack_after=before)
        candidate[block.id] = target
        remaining[target] -= block.size

    after = min_slack(candidate, regions, base_curve, temp)
    if after >= before:
        return RemapPlan(assignment=candidate, min_slack_before=before, min_slack_after=after)
    return RemapPlan(assignment=dict(current), min_slack_before=before, min_slack_after=before)
