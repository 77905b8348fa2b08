"""ASIC/eFPGA placement under a fabric area budget.

The objective is the knapsack reading of the ranked scores: maximize the sum
of composite scores of the IPs admitted to the fabric, subject to their total
area fitting the fabric capacity. ``plan_greedy`` admits IPs in rank order;
``plan_exact`` finds the optimum by meet-in-the-middle (Horowitz & Sahni,
1974; capped at 32 IPs) and doubles as the greedy's oracle.

Every float is a dyadic rational, so each column is mapped to integers over
one shared power-of-two denominator (areas and capacity share one, scores
have their own) and every capacity and tie comparison is exact. Reported
totals are ``math.fsum`` over the chosen set: correctly rounded, so they do
not depend on summation order and never exceed a capacity the exact sum fits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .model import _REAL, Dataset, ValidationError, _require_number, _require_unique, _scaled
from .scoring import ScoreCard, rank_cards

EXACT_SIZE_LIMIT = 32


@dataclass(frozen=True)
class FabricBudget:
    """Fabric capacity in the dataset's area unit."""

    capacity: float

    def __post_init__(self) -> None:
        _require_number(self.capacity, _REAL, 0, True, None, "budget error: capacity")


@dataclass(frozen=True)
class PartitionPlan:
    """A concrete placement: which IPs go to the fabric, which stay hardened."""

    efpga_ips: frozenset[str]
    asic_ips: frozenset[str]
    used_area: float
    total_score: float
    method: str


def _require_cover(ids: Sequence[str], dataset: Dataset, what: str) -> None:
    """Check that ``ids`` name every IP of ``dataset`` once, and nothing else."""
    _require_unique(ids, f"coverage error: {what} name IP %r twice")
    data_ids = set(dataset.ip_ids)
    missing, extra = sorted(data_ids.difference(ids)), sorted(set(ids) - data_ids)
    if missing or extra:
        raise ValidationError(f"coverage error: {what} do not cover the dataset "
                              f"(missing {missing}, extra {extra})")


def _scores(cards: Sequence[ScoreCard], dataset: Dataset) -> dict[str, float]:
    """Check the cards cover the dataset exactly; return their composites by id."""
    _require_cover([c.ip_id for c in cards], dataset, "cards")
    return {c.ip_id: c.composite for c in cards}


def _finish_plan(
    dataset: Dataset, score_by_id: dict[str, float], chosen: set[str], method: str
) -> PartitionPlan:
    return PartitionPlan(
        efpga_ips=frozenset(chosen),
        asic_ips=frozenset(set(dataset.ip_ids) - chosen),
        used_area=math.fsum(ip.area for ip in dataset.ips if ip.id in chosen),
        total_score=math.fsum(score_by_id[i] for i in chosen),
        method=method,
    )


def plan_greedy(
    cards: Sequence[ScoreCard], dataset: Dataset, budget: FabricBudget
) -> PartitionPlan:
    """Admit IPs to the fabric in rank order while they fit.

    Rank order is :func:`ecoplan.scoring.rank_cards`, so the plan is deterministic.
    Cards given in that order, as ``score_dataset`` returns them, sort in one pass.
    """
    score_by_id = _scores(cards, dataset)
    area_of = {ip.id: ip.area for ip in dataset.ips}
    ranked = rank_cards(cards, area_of)
    *areas, room = _scaled([area_of[c.ip_id] for c in ranked] + [budget.capacity])
    chosen: set[str] = set()
    for card, area in zip(ranked, areas):
        if area <= room:
            chosen.add(card.ip_id)
            room -= area
    return _finish_plan(dataset, score_by_id, chosen, "greedy")


def _subset_sums(items: Sequence[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Component-wise totals of every subset of ``items``, indexed by bitmask."""
    sums = [(0, 0, 0)]
    for area, score, weight in items:
        sums += [(a + area, s + score, w + weight) for a, s, w in sums]
    return sums


def plan_exact(
    cards: Sequence[ScoreCard], dataset: Dataset, budget: FabricBudget
) -> PartitionPlan:
    """Optimum over all subsets by meet-in-the-middle (dataset size capped at 32).

    Among feasible subsets the plan maximizes total score; ties prefer the
    smaller used area and then the lexicographically smallest id set.
    """
    n = len(dataset.ips)
    if n > EXACT_SIZE_LIMIT:
        raise ValidationError(
            f"size error: exact search handles at most {EXACT_SIZE_LIMIT} IPs, got {n}"
        )
    score_by_id = _scores(cards, dataset)
    *areas, capacity = _scaled([ip.area for ip in dataset.ips] + [budget.capacity])
    scores = _scaled([score_by_id[ip.id] for ip in dataset.ips])
    # Weight bit n-1-r marks the id of sorted rank r. Areas are > 0, so no tied
    # set contains another, and the larger weight sum is the smaller id set.
    weight_of = {ip_id: 1 << (n - 1 - r) for r, ip_id in enumerate(sorted(dataset.ip_ids))}
    items = list(zip(areas, scores, (weight_of[ip.id] for ip in dataset.ips)))

    # The key (score, -area, weight) is additive: each left subset pairs with the
    # best right subset that fits, found by binary search over area-sorted maxima.
    right = sorted(_subset_sums(items[n // 2:]))
    right_areas = [a for a, _, _ in right]
    prefix_best = list(accumulate(((s, -a, w) for a, s, w in right), max))
    best = (-math.inf,)
    for a, s, w in _subset_sums(items[: n // 2]):
        if a <= capacity:
            rs, ra, rw = prefix_best[bisect_right(right_areas, capacity - a) - 1]
            best = max(best, (s + rs, ra - a, w + rw))
    chosen = {ip_id for ip_id, weight in weight_of.items() if best[2] & weight}
    return _finish_plan(dataset, score_by_id, chosen, "exact")


def validate_plan(plan: PartitionPlan, dataset: Dataset, budget: FabricBudget) -> None:
    """Confirm every plan invariant; raise ValidationError with a diagnostic.

    Checks coverage (disjoint sets covering the dataset), capacity (the fabric
    IP areas fit the capacity, compared exactly as the planners compare them),
    and accounting (used_area is exactly the ``math.fsum`` of those areas).
    """
    # asic ids sorted: an IP in both partitions is named the same on every run
    _require_cover([*plan.efpga_ips, *sorted(plan.asic_ips)], dataset, "the partitions")
    areas = [ip.area for ip in dataset.ips if ip.id in plan.efpga_ips]
    *scaled, capacity = _scaled([*areas, budget.capacity])
    if sum(scaled) > capacity:
        raise ValidationError("capacity error: the fabric IP areas exceed capacity "
                              f"{budget.capacity} (used_area {plan.used_area})")
    if plan.used_area != math.fsum(areas):
        raise ValidationError(f"accounting error: used_area {plan.used_area} != sum of fabric "
                              f"IP areas {math.fsum(areas)}")
