"""ASIC/eFPGA placement under a fabric area budget.

The objective is the knapsack reading of the ranked scores: maximize the sum
of composite scores of the IPs admitted to the fabric, subject to their total
area fitting the fabric capacity. ``plan_greedy`` admits IPs in rank order;
``plan_exact`` enumerates every subset (capped at 20 IPs) and doubles as the
greedy's oracle.

All area and score totals are accumulated in dataset order, so identical IP
subsets always produce bit-identical totals regardless of which planner chose
them. That keeps the dominance guarantee (exact >= greedy) exact rather than
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Dataset, ValidationError, _require_finite
from .scoring import ScoreCard, rank_cards

EXACT_SIZE_LIMIT = 20


@dataclass(frozen=True)
class FabricBudget:
    """Fabric capacity in the dataset's area unit."""

    capacity: float

    def __post_init__(self) -> None:
        if _require_finite(self.capacity, "budget error: capacity") <= 0:
            raise ValidationError(f"budget error: capacity must be > 0, got {self.capacity}")


@dataclass(frozen=True)
class PartitionPlan:
    """A concrete placement: which IPs go to the fabric, which stay hardened."""

    efpga_ips: frozenset[str]
    asic_ips: frozenset[str]
    used_area: float
    total_score: float
    method: str


def _ordered_sum(values: Sequence[float]) -> float:
    # Left-to-right accumulation; the single canonical float result
    # every code path in this module must agree on.
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _align(cards: Sequence[ScoreCard], dataset: Dataset) -> list[ScoreCard]:
    """Check the cards cover the dataset exactly; return them in dataset order."""
    by_id = {c.ip_id: c for c in cards}
    if len(by_id) != len(cards):
        raise ValidationError("coverage error: duplicate score cards")
    card_ids = set(by_id)
    data_ids = set(dataset.ip_ids)
    if card_ids != data_ids:
        missing = sorted(data_ids - card_ids)
        extra = sorted(card_ids - data_ids)
        raise ValidationError(
            f"coverage error: cards do not cover the dataset (missing {missing}, extra {extra})"
        )
    return [by_id[ip.id] for ip in dataset.ips]


def _finish_plan(
    dataset: Dataset, score_by_id: dict[str, float], chosen: set[str], method: str
) -> PartitionPlan:
    used = _ordered_sum([ip.area for ip in dataset.ips if ip.id in chosen])
    total = _ordered_sum([score_by_id[ip.id] for ip in dataset.ips if ip.id in chosen])
    return PartitionPlan(
        efpga_ips=frozenset(chosen),
        asic_ips=frozenset(set(dataset.ip_ids) - chosen),
        used_area=used,
        total_score=total,
        method=method,
    )


def plan_greedy(
    cards: Sequence[ScoreCard], dataset: Dataset, budget: FabricBudget
) -> PartitionPlan:
    """Admit IPs to the fabric in rank order while they fit.

    Rank order is :func:`ecoplan.scoring.rank_cards`, so the plan is deterministic.
    """
    ordered_cards = _align(cards, dataset)
    score_by_id = {c.ip_id: c.composite for c in ordered_cards}
    ranked = rank_cards(ordered_cards, {ip.id: ip.area for ip in dataset.ips})

    chosen: set[str] = set()
    for card in ranked:
        candidate = chosen | {card.ip_id}
        used = _ordered_sum([ip.area for ip in dataset.ips if ip.id in candidate])
        if used <= budget.capacity:
            chosen = candidate
    return _finish_plan(dataset, score_by_id, chosen, "greedy")


def plan_exact(
    cards: Sequence[ScoreCard], dataset: Dataset, budget: FabricBudget
) -> PartitionPlan:
    """Exhaustive optimum over all subsets (dataset size capped at 20).

    Among feasible subsets the plan maximizes total score; ties prefer the
    smaller used area and then the lexicographically smallest id set.
    """
    n = len(dataset.ips)
    if n > EXACT_SIZE_LIMIT:
        raise ValidationError(
            f"size error: exact search handles at most {EXACT_SIZE_LIMIT} IPs, got {n}"
        )
    ordered_cards = _align(cards, dataset)
    score_by_id = {c.ip_id: c.composite for c in ordered_cards}

    areas = [ip.area for ip in dataset.ips]
    scores = [score_by_id[ip.id] for ip in dataset.ips]

    # Subset-sum tables indexed by bitmask; the doubling construction adds
    # items in ascending dataset order, matching _ordered_sum bit-for-bit.
    area_sums = np.zeros(1)
    score_sums = np.zeros(1)
    for a, s in zip(areas, scores):
        area_sums = np.concatenate((area_sums, area_sums + a))
        score_sums = np.concatenate((score_sums, score_sums + s))

    feasible = area_sums <= budget.capacity
    best_score = score_sums[feasible].max()
    candidates = np.nonzero(feasible & (score_sums == best_score))[0]
    candidate_areas = area_sums[candidates]
    candidates = candidates[candidate_areas == candidate_areas.min()]

    ids = dataset.ip_ids

    def id_set(mask: int) -> tuple[str, ...]:
        return tuple(sorted(ids[i] for i in range(n) if mask >> i & 1))

    best_mask = min((id_set(int(m)), int(m)) for m in candidates)[1]
    chosen = {ids[i] for i in range(n) if best_mask >> i & 1}
    return _finish_plan(dataset, score_by_id, chosen, "exact")


def validate_plan(plan: PartitionPlan, dataset: Dataset, budget: FabricBudget) -> None:
    """Confirm every plan invariant; raise ValidationError with a diagnostic.

    Checks coverage (disjoint sets covering the dataset), capacity
    (used_area <= capacity), and accounting (used_area equals the recomputed
    fabric area).
    """
    overlap = plan.efpga_ips & plan.asic_ips
    if overlap:
        raise ValidationError(f"coverage error: IPs in both partitions: {sorted(overlap)}")
    union = plan.efpga_ips | plan.asic_ips
    data_ids = set(dataset.ip_ids)
    if union != data_ids:
        raise ValidationError(
            "coverage error: plan does not cover the dataset "
            f"(missing {sorted(data_ids - union)}, extra {sorted(union - data_ids)})"
        )
    if plan.used_area > budget.capacity:
        raise ValidationError(
            f"capacity error: used_area {plan.used_area} exceeds capacity {budget.capacity}"
        )
    recomputed = _ordered_sum([ip.area for ip in dataset.ips if ip.id in plan.efpga_ips])
    if abs(plan.used_area - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
        raise ValidationError(
            f"accounting error: used_area {plan.used_area} != sum of fabric IP areas {recomputed}"
        )
