"""Temperature-dependent timing slack and remapping away from degraded regions.

Slack curves are piecewise-linear over strictly increasing temperatures in
finite steps; no extrapolation is performed outside the knot range. Region
degradation is abstracted as a multiplicative health factor in (0, 1] applied
to the base slack of whatever logic the region hosts (transistor-level aging
physics is out of scope). The remap planner moves logic blocks toward
healthier regions and guarantees the minimum effective slack never gets worse.
``ecoplan aging`` runs its config section through :func:`run_section`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .model import (_REAL, ValidationError, _from_dict, _require_finite, _require_number,
                    _require_text, _require_unique, _scaled)


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
        if not all(0 < b - a < math.inf for a, b in zip(temps, temps[1:])):
            raise ValidationError(f"curve {self.platform!r} temperatures must be strictly "
                                  "increasing in finite steps")

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
    """Interpolate the curve at ``temp``; exact at knots, no extrapolation, and
    between the slacks of the two knots around it even where rounding is not."""
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
    low, high = sorted((s0, s1))
    return min(max(s0 + (temp - t0) / (t1 - t0) * (s1 - s0), low), high)


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
            raise ValidationError(f"block {block_id!r} currently assigned to unknown region "
                                  f"{region_id!r}")
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
    ids = [b.id for b in blocks]
    _require_unique(ids, "duplicate block id %r")
    index = _region_index(regions)

    current = {b.id: b.region for b in blocks}
    before = min_slack(current, regions, base_curve, temp)  # rejects no block, unknown regions
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

    after = min_slack(candidate, regions, base_curve, temp)
    if after > before:
        return RemapPlan(assignment=candidate, min_slack_before=before, min_slack_after=after)
    return RemapPlan(assignment=dict(current), min_slack_before=before, min_slack_after=before)


def run_section(section: Mapping[str, Any],
                temp: float) -> tuple[list[SlackCurve], dict[str, float], RemapPlan | None]:
    """A checked ``aging`` section at ``temp``: its curves by platform, the slack
    of each, and the remap of ``blocks`` over ``regions`` on the ``ecologic``
    curve (else the first), which needs both lists non-empty; None without either."""
    if not section["curves"]:
        raise ValidationError("aging curves must be non-empty")
    curves = [SlackCurve(platform, points)
              for platform, points in sorted(section["curves"].items())]
    slacks = {curve.platform: slack_at(curve, temp) for curve in curves}
    regions, blocks = section["regions"], section["blocks"]
    if regions is None and blocks is None:
        return curves, slacks, None
    for key, items in (("regions", regions), ("blocks", blocks)):
        if not items:
            raise ValidationError(f"aging {key} must be a non-empty list to remap")
    regions = [_from_dict(FabricRegion, r, "aging region") for r in regions]
    blocks = [_from_dict(LogicBlock, b, "aging block") for b in blocks]
    base_curve = next((c for c in curves if c.platform == "ecologic"), curves[0])
    return curves, slacks, remap(blocks, regions, base_curve, temp)
