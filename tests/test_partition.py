from __future__ import annotations

import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ecoplan.model import Dataset, IpProfile, ValidationError
from ecoplan.partition import (
    EXACT_SIZE_LIMIT,
    FabricBudget,
    PartitionPlan,
    plan_exact,
    plan_greedy,
    validate_plan,
)
from ecoplan.scoring import ScoreCard, score_dataset


def brute_force_best(ids, areas, scores, capacity):
    """Independent exhaustive oracle over itertools.combinations.

    Totals are exact rational sums (``fractions.Fraction``), so they do not
    depend on summation order; the returned totals are their nearest floats.
    """
    def exact_sum(values, indices):
        return sum((Fraction(values[i]) for i in indices), Fraction(0))

    best_key = None
    best_set = None
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(range(len(ids)), size):
            used = exact_sum(areas, combo)
            if used > Fraction(capacity):
                continue
            key = (-exact_sum(scores, combo), used, tuple(sorted(ids[i] for i in combo)))
            if best_key is None or key < best_key:
                best_key = key
                best_set = combo
    return frozenset(ids[i] for i in best_set), float(-best_key[0]), float(best_key[1])


def minimal_ip(ip_id: str, area: float) -> IpProfile:
    return IpProfile(
        id=ip_id,
        name=ip_id,
        loc_changed=0,
        confidentiality_risk=0.0,
        io_control_nets=0,
        internal_nets_and_state=1,
        logic_mapped_to_efpga=0.0,
        total_logic=1.0,
        f_max_asic=1.0,
        f_max_efpga=1.0,
        area=area,
    )


def make_instance(areas, scores, ids=None) -> tuple[list[ScoreCard], Dataset]:
    ids = ids or [f"ip{i:02d}" for i in range(len(areas))]
    dataset = Dataset(
        ips=tuple(minimal_ip(ip_id, area) for ip_id, area in zip(ids, areas)),
        area_unit="gate_eq",
    )
    cards = [
        ScoreCard(
            ip_id=ip_id,
            adaptability=0.0,
            piracy_threat=0.0,
            performance_tolerance=1.0,
            resource_fit=0.0,
            composite=score,
            normalized=1.0,
        )
        for ip_id, score in zip(ids, scores)
    ]
    return cards, dataset


class TestBudget:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValidationError, match="budget error"):
            FabricBudget(capacity=0.0)
        with pytest.raises(ValidationError, match="budget error"):
            FabricBudget(capacity=-5.0)


class TestGreedy:
    def test_unconstrained_puts_everything_on_fabric(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        total_area = sum(ip.area for ip in six_ip_dataset.ips)
        plan = plan_greedy(cards, six_ip_dataset, FabricBudget(total_area))
        assert plan.efpga_ips == set(six_ip_dataset.ip_ids)
        assert plan.asic_ips == frozenset()

    def test_tiny_capacity_leaves_everything_hardened(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        plan = plan_greedy(cards, six_ip_dataset, FabricBudget(1.0))
        assert plan.efpga_ips == frozenset()
        assert plan.used_area == 0.0
        assert plan.asic_ips == set(six_ip_dataset.ip_ids)

    def test_top_two_fit_exactly(self, six_ip_dataset, default_weights):
        """Capacity equal to the top-2 ranked areas admits exactly those two;
        brute force over all 64 subsets confirms that choice is optimal here."""
        cards = score_dataset(six_ip_dataset, default_weights)
        d1 = six_ip_dataset.ip("d1")
        d2 = six_ip_dataset.ip("d2")
        capacity = d1.area + d2.area
        plan = plan_greedy(cards, six_ip_dataset, FabricBudget(capacity))
        assert plan.efpga_ips == {"d1", "d2"}

        ids = list(six_ip_dataset.ip_ids)
        areas = [ip.area for ip in six_ip_dataset.ips]
        scores = [c.composite for c in sorted(cards, key=lambda c: ids.index(c.ip_id))]
        best_set, best_score, _ = brute_force_best(ids, areas, scores, capacity)
        assert best_set == {"d1", "d2"}
        assert plan.total_score == best_score

    def test_cards_must_cover_dataset(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        with pytest.raises(ValidationError, match="coverage error"):
            plan_greedy(cards[:-1], six_ip_dataset, FabricBudget(1000.0))

    def test_duplicate_card_is_named(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        with pytest.raises(ValidationError, match="^coverage error: cards name IP 'd4' twice$"):
            plan_greedy([*cards, cards[2]], six_ip_dataset, FabricBudget(1000.0))


class TestExact:
    def test_unconstrained_selects_all(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        total_area = sum(ip.area for ip in six_ip_dataset.ips)
        plan = plan_exact(cards, six_ip_dataset, FabricBudget(total_area))
        assert plan.efpga_ips == set(six_ip_dataset.ip_ids)

    @pytest.mark.parametrize("generator", ["uniform", "tie_heavy"])
    def test_matches_independent_oracle_on_random_instances(self, generator):
        rng = random.Random(1207)
        for _ in range(60):
            if generator == "uniform":
                n = rng.randint(1, 8)
                areas = [rng.uniform(1, 100) for _ in range(n)]
                scores = [rng.uniform(0, 1) for _ in range(n)]
                capacity = rng.uniform(1, sum(areas) * 1.1)
                ids = None
            else:
                # Small integer areas and quarter-step scores make many subsets
                # tie on score and area; odd and even n split unevenly or evenly.
                # Shuffled ids make the id tie-break disagree with dataset order.
                n = rng.randint(1, 11)
                areas = [float(rng.randint(1, 6)) for _ in range(n)]
                scores = [rng.randint(0, 4) / 4 for _ in range(n)]
                capacity = float(rng.randint(1, int(sum(areas))))
                ids = [f"ip{i:02d}" for i in rng.sample(range(n), n)]
            cards, dataset = make_instance(areas, scores, ids)
            budget = FabricBudget(capacity)
            plan = plan_exact(cards, dataset, budget)
            best_set, best_score, best_area = brute_force_best(
                dataset.ip_ids, areas, scores, capacity
            )
            assert plan.total_score == best_score
            assert plan.used_area == best_area
            assert plan.efpga_ips == best_set
            validate_plan(plan, dataset, budget)

    def test_dominates_greedy(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 10)
            areas = [rng.uniform(1, 50) for _ in range(n)]
            scores = [rng.uniform(0, 1) for _ in range(n)]
            capacity = rng.uniform(1, sum(areas))
            cards, dataset = make_instance(areas, scores)
            budget = FabricBudget(capacity)
            exact = plan_exact(cards, dataset, budget)
            greedy = plan_greedy(cards, dataset, budget)
            assert exact.total_score >= greedy.total_score
            assert greedy.used_area <= capacity

    def test_capacity_monotonicity(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 8)
            areas = [rng.uniform(1, 50) for _ in range(n)]
            scores = [rng.uniform(0, 1) for _ in range(n)]
            cards, dataset = make_instance(areas, scores)
            small = rng.uniform(1, sum(areas))
            large = small + rng.uniform(0, sum(areas))
            a = plan_exact(cards, dataset, FabricBudget(small))
            b = plan_exact(cards, dataset, FabricBudget(large))
            assert b.total_score >= a.total_score

    def test_tie_breaks_prefer_smaller_area_then_ids(self):
        # Two ways to reach the same best score; the cheaper one wins.
        cards, dataset = make_instance([10.0, 4.0, 4.0], [0.5, 0.25, 0.25])
        plan = plan_exact(cards, dataset, FabricBudget(10.0))
        assert plan.efpga_ips == {"ip01", "ip02"}
        assert plan.used_area == 8.0

    def test_size_cap(self):
        areas = [1.0] * (EXACT_SIZE_LIMIT + 1)
        scores = [0.5] * (EXACT_SIZE_LIMIT + 1)
        cards, dataset = make_instance(areas, scores)
        with pytest.raises(ValidationError, match="size error"):
            plan_exact(cards, dataset, FabricBudget(5.0))

    def test_size_limit_instance_picks_the_best_scores(self):
        n, k = EXACT_SIZE_LIMIT, 11
        scores = [((7 * i) % n + 1) / n for i in range(n)]
        cards, dataset = make_instance([1.0] * n, scores)
        plan = plan_exact(cards, dataset, FabricBudget(float(k)))
        best = sorted(range(n), key=lambda i: -scores[i])[:k]
        assert plan.efpga_ips == {dataset.ip_ids[i] for i in best}
        assert plan.used_area == float(k)

    def test_greedy_and_exact_agree_unconstrained(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(sum(ip.area for ip in six_ip_dataset.ips))
        assert plan_greedy(cards, six_ip_dataset, budget).efpga_ips == plan_exact(
            cards, six_ip_dataset, budget
        ).efpga_ips


class TestValidatePlan:
    def test_planner_output_validates(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(200000.0)
        validate_plan(plan_greedy(cards, six_ip_dataset, budget), six_ip_dataset, budget)

    def test_overlapping_sets_rejected(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(200000.0)
        plan = plan_greedy(cards, six_ip_dataset, budget)
        both = next(iter(plan.efpga_ips))
        broken = replace(plan, asic_ips=plan.asic_ips | {both})
        with pytest.raises(ValidationError, match=f"the partitions name IP '{both}' twice"):
            validate_plan(broken, six_ip_dataset, budget)

    def test_missing_ip_rejected(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(200000.0)
        plan = plan_greedy(cards, six_ip_dataset, budget)
        broken = replace(plan, asic_ips=frozenset())
        if not plan.asic_ips:
            pytest.skip("plan has no hardened IPs to drop")
        with pytest.raises(ValidationError, match="coverage error"):
            validate_plan(broken, six_ip_dataset, budget)

    def test_missummed_area_rejected(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(200000.0)
        plan = plan_greedy(cards, six_ip_dataset, budget)
        broken = replace(plan, used_area=plan.used_area - 1.0)
        with pytest.raises(ValidationError, match="accounting error"):
            validate_plan(broken, six_ip_dataset, budget)

    def test_over_capacity_rejected(self, six_ip_dataset, default_weights):
        cards = score_dataset(six_ip_dataset, default_weights)
        budget = FabricBudget(200000.0)
        plan = plan_greedy(cards, six_ip_dataset, budget)
        with pytest.raises(ValidationError, match="capacity error"):
            validate_plan(plan, six_ip_dataset, FabricBudget(plan.used_area / 2))

    def test_areas_over_capacity_by_less_than_a_rounding_rejected(self):
        # the float sum 1.0 + 1e-17 rounds to 1.0, but the exact sum exceeds the capacity
        cards, dataset = make_instance([1.0, 1e-17], [0.5, 0.5])
        plan = PartitionPlan(frozenset(dataset.ip_ids), frozenset(), 1.0, 1.0, "greedy")
        for planner in (plan_greedy, plan_exact):  # each admits only one of the two
            assert len(planner(cards, dataset, FabricBudget(1.0)).efpga_ips) == 1
        with pytest.raises(ValidationError, match="^capacity error: the fabric IP areas exceed "
                                                  "capacity 1.0 [(]used_area 1.0[)]$"):
            validate_plan(plan, dataset, FabricBudget(1.0))

    def test_used_area_off_by_a_rounding_rejected(self):
        _, dataset = make_instance([1.0], [0.5])
        plan = PartitionPlan(frozenset({"ip00"}), frozenset(), 1.0 - 1e-12, 0.5, "greedy")
        with pytest.raises(ValidationError, match="^accounting error: used_area 0.999999999999 "
                                                  "!= sum of fabric IP areas 1.0$"):
            validate_plan(plan, dataset, FabricBudget(1.0))

    def test_exactly_full_fabric_validates(self):
        cards, dataset = make_instance([0.5, 0.25, 0.25], [0.5, 0.5, 0.5])
        budget = FabricBudget(1.0)
        for planner in (plan_greedy, plan_exact):
            plan = planner(cards, dataset, budget)
            assert plan.efpga_ips == set(dataset.ip_ids) and plan.used_area == 1.0
            validate_plan(plan, dataset, budget)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library use\n.*?```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace: dict = {}
    exec(example, namespace)
    # compare sets: the order in a frozenset's repr depends on the hash seed
    assert namespace["plan"].efpga_ips == {"d1", "d2"}
