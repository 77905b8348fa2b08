from __future__ import annotations

import itertools

import pytest

from ecoplan.aging import (
    FabricRegion,
    LogicBlock,
    SlackCurve,
    min_slack,
    remap,
    slack_at,
)
from ecoplan.model import ValidationError


@pytest.fixture
def simple_curve():
    return SlackCurve(platform="ecologic", points=((25.0, 10.0), (100.0, 6.0), (140.0, 4.0)))


class TestSlackCurve:
    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            SlackCurve(platform="x", points=((25.0, 10.0),))

    def test_temperatures_strictly_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SlackCurve(platform="x", points=((25.0, 10.0), (25.0, 9.0)))

    def test_negative_slack_rejected(self):
        with pytest.raises(ValidationError, match="curve 'x' slack must be >= 0"):
            SlackCurve(platform="x", points=((25.0, 1.0), (30.0, -0.5)))

    @pytest.mark.parametrize(
        "platform, message",
        [("a\u0000b", "must not contain NUL"), ("a\ud800", "must encode as UTF-8"),
         ("", "must be a non-empty string"), (5, "must be a non-empty string")],
        ids=["nul", "surrogate", "empty", "int"],
    )
    def test_platform_must_be_text(self, platform, message):
        with pytest.raises(ValidationError, match=f"^curve platform {message}"):
            SlackCurve(platform=platform, points=((25.0, 10.0), (30.0, 9.0)))


class TestRegionsAndBlocks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FabricRegion("", 1.0, 1.0), "region id must be a non-empty string, got ''"),
            (lambda: FabricRegion(5, 1.0, 1.0), "region id must be a non-empty string, got 5"),
            (lambda: FabricRegion("r", 0, 1.0), "region 'r' capacity must be > 0"),
            (lambda: FabricRegion("r", 1.0, 0.0), "region 'r' health_factor must lie in (0, 1]"),
            (lambda: FabricRegion("r", 1.0, 1.5), "region 'r' health_factor must lie in (0, 1]"),
            (lambda: FabricRegion("r", "1", 1.0),
             "region 'r' capacity must be a real number, got '1'"),
            (lambda: LogicBlock(["b"], 1.0, "r"), "block id must be a non-empty string, got ['b']"),
            (lambda: LogicBlock("b", -1, "r"), "block 'b' size must be > 0"),
            (lambda: LogicBlock("b", 1.0, ""), "block 'b' region must be a non-empty string, got ''"),
            (lambda: LogicBlock("b", 1.0, 5), "block 'b' region must be a non-empty string, got 5"),
        ],
        ids=["region-id-empty", "region-id-int", "capacity-zero", "health-zero", "health-over-one",
             "capacity-string", "block-id-list", "size-negative", "block-region-empty",
             "block-region-int"],
    )
    def test_rejected_with_message(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_bounds_are_inclusive_where_stated(self):
        assert FabricRegion("r", 1e-9, 1.0).health_factor == 1.0
        assert LogicBlock("b", 1e-9, "r").size == 1e-9


class TestSlackAt:
    def test_exact_at_knots(self, simple_curve):
        for temp, slack in simple_curve.points:
            assert slack_at(simple_curve, temp) == slack

    def test_segment_midpoint_is_mean(self, simple_curve):
        assert slack_at(simple_curve, 62.5) == pytest.approx((10.0 + 6.0) / 2, abs=1e-12)
        assert slack_at(simple_curve, 120.0) == pytest.approx((6.0 + 4.0) / 2, abs=1e-12)

    @pytest.mark.parametrize(
        "temp, message",
        [(10**400, "temperature must be finite, got an integer too large for a float"),
         (float("nan"), "temperature must be finite, got nan"),
         ("100", "temperature must be a real number, got '100'")],
        ids=["too-large", "nan", "string"],
    )
    def test_temperature_must_be_a_finite_number(self, simple_curve, temp, message):
        with pytest.raises(ValidationError) as info:
            slack_at(simple_curve, temp)
        assert str(info.value) == message

    def test_no_extrapolation(self, simple_curve):
        with pytest.raises(ValidationError, match="outside curve"):
            slack_at(simple_curve, 20.0)
        with pytest.raises(ValidationError, match="outside curve"):
            slack_at(simple_curve, 141.0)

    def test_monotone_curve_interpolates_monotonically(self, simple_curve):
        temps = [25 + i * 1.15 for i in range(100)]
        values = [slack_at(simple_curve, t) for t in temps]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_demo_fixture_anchor_above_eight_at_fifty(self, demo_curves):
        assert slack_at(demo_curves["ecologic"], 50.0) > 8.0


class TestMinSlack:
    def test_pristine_regions_pass_base_slack_through(self, simple_curve):
        regions = [FabricRegion("r0", 10.0, 1.0), FabricRegion("r1", 10.0, 1.0)]
        assignment = {"b0": "r0", "b1": "r1"}
        assert min_slack(assignment, regions, simple_curve, 25.0) == 10.0

    def test_degraded_region_sets_the_minimum(self, simple_curve):
        regions = [FabricRegion("r0", 10.0, 1.0), FabricRegion("r1", 10.0, 0.5)]
        assignment = {"b0": "r0", "b1": "r1"}
        assert min_slack(assignment, regions, simple_curve, 25.0) == pytest.approx(5.0)

    def test_unknown_region_rejected(self, simple_curve):
        regions = [FabricRegion("r0", 10.0, 1.0)]
        with pytest.raises(ValidationError, match="unassigned block"):
            min_slack({"b0": "zz"}, regions, simple_curve, 25.0)

    def test_three_by_three_matches_exhaustive_oracle(self, simple_curve):
        regions = [
            FabricRegion("r0", 5.0, 1.0),
            FabricRegion("r1", 5.0, 0.8),
            FabricRegion("r2", 5.0, 0.6),
        ]
        health = {r.id: r.health_factor for r in regions}
        base = slack_at(simple_curve, 80.0)
        for combo in itertools.product([r.id for r in regions], repeat=3):
            assignment = {f"b{i}": rid for i, rid in enumerate(combo)}
            oracle = min(base * health[rid] for rid in combo)
            assert min_slack(assignment, regions, simple_curve, 80.0) == pytest.approx(oracle)


class TestRemap:
    def test_identity_when_no_degradation(self, simple_curve):
        regions = [FabricRegion("r0", 10.0, 1.0), FabricRegion("r1", 10.0, 1.0)]
        blocks = [LogicBlock("b0", 4.0, "r0"), LogicBlock("b1", 4.0, "r1")]
        plan = remap(blocks, regions, simple_curve, 25.0)
        assert plan.min_slack_after == plan.min_slack_before
        assert plan.assignment == {"b0": "r0", "b1": "r1"}  # no move without a gain

    def test_single_block_moves_to_healthy_region(self, simple_curve):
        regions = [FabricRegion("bad", 10.0, 0.4), FabricRegion("good", 10.0, 1.0)]
        blocks = [LogicBlock("b0", 4.0, "bad")]
        plan = remap(blocks, regions, simple_curve, 25.0)
        assert plan.assignment == {"b0": "good"}
        assert plan.min_slack_after == pytest.approx(10.0)
        assert plan.min_slack_before == pytest.approx(4.0)

    def test_never_worsens(self, simple_curve):
        import random

        rng = random.Random(99)
        for _ in range(200):
            n_regions = rng.randint(1, 4)
            regions = [
                FabricRegion(f"r{i}", rng.uniform(2, 10), rng.uniform(0.3, 1.0))
                for i in range(n_regions)
            ]
            blocks = []
            for i in range(rng.randint(1, 4)):
                host = rng.choice(regions)
                used = sum(b.size for b in blocks if b.region == host.id)
                free = host.capacity - used
                if free <= 0.1:
                    continue
                blocks.append(LogicBlock(f"b{i}", rng.uniform(0.1, free), host.id))
            if not blocks:
                continue
            temp = rng.uniform(25.0, 140.0)
            plan = remap(blocks, regions, simple_curve, temp)
            assert plan.min_slack_after >= plan.min_slack_before
            current = {b.id: b.region for b in blocks}
            assert (plan.min_slack_before, plan.min_slack_after) == (
                min_slack(current, regions, simple_curve, temp),
                min_slack(plan.assignment, regions, simple_curve, temp))

    def test_small_instances_against_exhaustive_optimum(self, simple_curve):
        """Greedy never beats the exhaustive best min-slack and never loses
        ground versus the starting placement."""
        import random

        rng = random.Random(5)
        for _ in range(80):
            regions = [
                FabricRegion(f"r{i}", rng.uniform(3, 8), rng.uniform(0.3, 1.0))
                for i in range(rng.randint(2, 4))
            ]
            blocks = []
            for i in range(rng.randint(1, 4)):
                host = rng.choice(regions)
                used = sum(b.size for b in blocks if b.region == host.id)
                free = host.capacity - used
                if free <= 0.2:
                    continue
                blocks.append(LogicBlock(f"b{i}", rng.uniform(0.2, free), host.id))
            if not blocks:
                continue
            temp = rng.uniform(25.0, 140.0)
            base = slack_at(simple_curve, temp)
            health = {r.id: r.health_factor for r in regions}
            capacity = {r.id: r.capacity for r in regions}

            best = None
            for combo in itertools.product([r.id for r in regions], repeat=len(blocks)):
                load: dict[str, float] = {}
                for block, rid in zip(blocks, combo):
                    load[rid] = load.get(rid, 0.0) + block.size
                if any(load[rid] > capacity[rid] for rid in load):
                    continue
                value = min(base * health[rid] for rid in combo)
                best = value if best is None else max(best, value)

            plan = remap(blocks, regions, simple_curve, temp)
            assert best is not None
            assert plan.min_slack_after <= best + 1e-12
            assert plan.min_slack_after >= plan.min_slack_before

    def test_duplicate_block_or_region_is_named(self, simple_curve):
        regions = [FabricRegion("r0", 10.0, 1.0), FabricRegion("r1", 10.0, 0.5)]
        blocks = [LogicBlock("b0", 1.0, "r0"), LogicBlock("b1", 1.0, "r1"),
                  LogicBlock("b1", 2.0, "r0")]
        with pytest.raises(ValidationError, match="^duplicate block id 'b1'$"):
            remap(blocks, regions, simple_curve, 25.0)
        with pytest.raises(ValidationError, match="^duplicate region id 'r1'$"):
            remap(blocks[:2], [*regions, regions[1]], simple_curve, 25.0)

    def test_total_capacity_shortfall_rejected(self, simple_curve):
        regions = [FabricRegion("r0", 3.0, 1.0)]
        blocks = [LogicBlock("b0", 2.0, "r0"), LogicBlock("b1", 2.0, "r0")]
        with pytest.raises(ValidationError):
            remap(blocks, regions, simple_curve, 25.0)

    @pytest.mark.parametrize("capacity", [0.6, 0.6000000000000001, 0.7])
    def test_block_order_changes_neither_plan_nor_error(self, simple_curve, capacity):
        # as floats, 0.1 + 0.2 + 0.3 is 0.6000000000000001 but 0.3 + 0.2 + 0.1 is 0.6;
        # the exact sum lies between the two
        regions = [FabricRegion("r", capacity, 0.5), FabricRegion("ok", 1.0, 1.0)]
        outcomes = set()
        for sizes in itertools.permutations([0.1, 0.2, 0.3]):
            blocks = [LogicBlock(f"b{size}", size, "r") for size in sizes]
            try:
                plan = remap(blocks, regions, simple_curve, 25.0)
            except ValidationError as exc:
                outcomes.add(str(exc))
            else:
                outcomes.add((tuple(sorted(plan.assignment.items())), plan.min_slack_after))
        assert len(outcomes) == 1
        if capacity == 0.6:
            assert outcomes == {"region 'r' overloaded: the exact sum of its block sizes "
                                "exceeds its capacity 0.6"}

    def test_capacity_respected_in_candidate(self, simple_curve):
        regions = [FabricRegion("good", 4.0, 1.0), FabricRegion("ok", 10.0, 0.9)]
        blocks = [
            LogicBlock("big", 4.0, "ok"),
            LogicBlock("small", 3.0, "ok"),
        ]
        plan = remap(blocks, regions, simple_curve, 25.0)
        load_good = sum(
            b.size for b in blocks if plan.assignment[b.id] == "good"
        )
        assert load_good <= 4.0
        assert plan.min_slack_after >= plan.min_slack_before


class TestDemoFixtureCurves:
    def test_ordering_at_130(self, demo_curves):
        eco = slack_at(demo_curves["ecologic"], 130.0)
        fpga = slack_at(demo_curves["fpga"], 130.0)
        asic = slack_at(demo_curves["asic"], 130.0)
        assert eco > fpga > asic
        assert eco > 5.0
        assert asic == pytest.approx(2.0, abs=0.5)

    def test_all_platforms_healthy_below_sixty(self, demo_curves):
        for platform, curve in demo_curves.items():
            for temp in (25.0, 40.0, 55.0, 59.9):
                assert slack_at(curve, temp) > 8.0, platform

    def test_fpga_below_six_by_hundred(self, demo_curves):
        assert slack_at(demo_curves["fpga"], 100.0) < 6.0
