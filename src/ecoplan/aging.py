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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import (_REAL, ValidationError, _require_finite, _require_number, _require_text,
                    _require_unique, _scaled)


@dataclass(frozen=True)
class SlackCurve:
    """Piecewise-linear (temperature degC, slack ns) curve for one platform."""

    platform: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        where = f"curve {_require_text(self.platform, 'curve platform')!r}"
        if not isinstance(self.points, (list, tuple)) or not all(
            isinstance(point, (list, tuple)) and len(point) == 2 for point in self.points
        ):
            raise ValidationError(f"{where} points must be [temperature, slack] pairs")
        pts = tuple(
            (_require_finite(t, f"{where} temperature"),
             _require_number(s, _REAL, 0, False, None, f"{where} slack"))
            for t, s in self.points
        )
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValidationError(f"curve {self.platform!r} needs at least 2 points")
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
        _require_text(self.id, "region id")
        _require_number(self.capacity, _REAL, 0, True, None, f"region {self.id!r} capacity")
        _require_number(self.health_factor, _REAL, 0, True, 1, f"region {self.id!r} health_factor")


@dataclass(frozen=True)
class LogicBlock:
    """A mapped logic block: its size (region capacity units) and the region
    currently hosting it."""

    id: str
    size: float
    region: str

    def __post_init__(self) -> None:
        _require_text(self.id, "block id")
        _require_number(self.size, _REAL, 0, True, None, f"block {self.id!r} size")
        _require_text(self.region, f"block {self.id!r} region")


@dataclass(frozen=True)
class RemapPlan:
    """The region of every block after :func:`remap`, keyed by block id, and the
    minimum effective slack (ns) of the blocks before and after the move."""

    assignment: Mapping[str, str]
    min_slack_before: float
    min_slack_after: float


def slack_at(curve: SlackCurve, temp: float) -> float:
    """Interpolate the curve at ``temp``; exact at knots, no extrapolation."""
    _require_finite(temp, "temperature")
    if temp < curve.t_min or temp > curve.t_max:
        raise ValidationError(
            f"temperature {temp} outside curve {curve.platform!r} "
            f"range [{curve.t_min}, {curve.t_max}]; extrapolation is not supported"
        )
    i = bisect_left(curve.points, (temp,))  # the first knot at or above temp
    t1, s1 = curve.points[i]
    if temp == t1:
        return s1
    t0, s0 = curve.points[i - 1]
    return s0 + (temp - t0) / (t1 - t0) * (s1 - s0)


def _region_index(regions: Sequence[FabricRegion]) -> dict[str, FabricRegion]:
    if not regions:
        raise ValidationError("need at least one region")
    _require_unique([r.id for r in regions], "duplicate region id %r")
    return {r.id: r for r in regions}


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
    assignment is returned unchanged. Sizes and capacities are compared as
    exact integers, so neither the plan nor an error depends on block order.
    """
    if not blocks:
        raise ValidationError("need at least one block")
    ids = [b.id for b in blocks]
    _require_unique(ids, "duplicate block id %r")
    index = _region_index(regions)

    current = {b.id: b.region for b in blocks}
    for block in blocks:
        if block.region not in index:
            raise ValidationError(
                f"block {block.id!r} currently assigned to unknown region {block.region!r}"
            )
    sizes = _scaled([b.size for b in blocks] + [r.capacity for r in index.values()])
    size_of = dict(zip(ids, sizes))
    capacity_of = dict(zip(index, sizes[len(ids):]))
    load = dict.fromkeys(index, 0)
    for block in blocks:
        load[block.region] += size_of[block.id]
    for rid, region in index.items():
        # every block sits in a region, so no total can exceed the total capacity either
        if load[rid] > capacity_of[rid]:
            raise ValidationError(
                f"region {rid!r} overloaded: the exact sum of its block sizes exceeds "
                f"its capacity {region.capacity}"
            )

    # as min_slack: base >= 0, so the least health gives the least base * health
    base = slack_at(base_curve, temp)
    before = base * min(index[rid].health_factor for rid in current.values())

    by_health = sorted(index.values(), key=lambda r: (-r.health_factor, r.id))
    candidate: dict[str, str] = {}
    for block in sorted(blocks, key=lambda b: (-b.size, b.id)):
        size = size_of[block.id]
        target = next((r.id for r in by_health if capacity_of[r.id] >= size), None)
        if target is None:
            return RemapPlan(assignment=dict(current), min_slack_before=before,
                             min_slack_after=before)
        candidate[block.id] = target
        capacity_of[target] -= size

    after = base * min(index[rid].health_factor for rid in candidate.values())
    if after > before:
        return RemapPlan(assignment=candidate, min_slack_before=before, min_slack_after=after)
    return RemapPlan(assignment=dict(current), min_slack_before=before, min_slack_after=before)
