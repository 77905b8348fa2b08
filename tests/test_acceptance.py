"""Acceptance suite: every exit criterion, each at its stated tolerance.

A per-criterion PASS/FAIL summary is printed at the end of the pytest run
(see conftest). Where the reference tables are internally inconsistent the
tests assert the independently computed value and pin the divergence so it
stays visible: a silent fix and a silent failure are equally wrong.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import refdata
from ecoplan.aging import FabricRegion, LogicBlock, SlackCurve, remap, slack_at
from ecoplan.carbon import (
    HOURS_PER_YEAR,
    CarbonParams,
    Scenario,
    SweepSpec,
    app_dev_carbon,
    calibrate_e_use,
    calibrated_params,
    compare,
    deploy_carbon,
    mean_reduction_at,
    sweep,
    total_cfp,
)
from ecoplan.model import Dataset, IpProfile, ScoreWeights, validate_weights
from ecoplan.partition import FabricBudget, plan_exact, plan_greedy, validate_plan
from ecoplan.report import compare_report_files, platform_comparison
from ecoplan.scoring import (
    ScoreCard,
    adaptability,
    composite,
    exposure,
    normalize_composites,
    performance_tolerance,
    piracy_threat,
    redaction_ratio,
    resource_fit,
)

W = ScoreWeights.default()


# --- C1: composite evaluation against the reference score table ---------------


@pytest.mark.criterion("C1", "composite score oracle vs reference table")
class TestC1Composite:
    def test_d1_composite(self):
        value = composite(*refdata.SUBSCORE_ROWS["d1"], W)
        assert value == pytest.approx(0.8650, abs=1e-12)
        assert abs(value - refdata.REFERENCE_COMPOSITES["d1"]) <= 0.01

    def test_d2_composite_consistent_with_reference(self):
        value = composite(*refdata.SUBSCORE_ROWS["d2"], W)
        assert value == pytest.approx(0.8300, abs=1e-12)
        assert abs(value - refdata.REFERENCE_COMPOSITES["d2"]) <= 0.01 + 1e-12

    @pytest.mark.parametrize("design", ["d3", "d4", "d5", "d6"])
    def test_d3_to_d6_match_hand_oracle_and_flag_reference_divergence(self, design):
        """The weighted combination of the published sub-score rows does not
        reproduce the published composites for d3..d6. Assert the arithmetic
        truth and pin the divergence (> 0.01) so it cannot pass unnoticed."""
        value = composite(*refdata.SUBSCORE_ROWS[design], W)
        assert value == pytest.approx(refdata.HAND_COMPOSITES[design], abs=1e-12)
        assert abs(value - refdata.REFERENCE_COMPOSITES[design]) > 0.01


# --- C2: normalization of the reference composite column ----------------------


@pytest.mark.criterion("C2", "normalized score column within +-0.005")
def test_c2_normalization_of_reference_composites():
    designs = list(refdata.DESIGNS)
    normalized = normalize_composites([refdata.REFERENCE_COMPOSITES[d] for d in designs])
    for design, value in zip(designs, normalized):
        assert value == pytest.approx(refdata.REFERENCE_NORMALIZED[design], abs=0.005), design


# --- C3: churn score anchors ---------------------------------------------------


@pytest.mark.criterion("C3", "churn score anchors (200 -> 1.00, 180 -> 0.980)")
def test_c3_adaptability_anchors():
    assert adaptability(200, 200) == 1.0
    assert adaptability(180, 200) == pytest.approx(0.980, abs=1e-3)


# --- C4: deployment-carbon row reproduction ------------------------------------

_SWEEP_CACHE: dict[tuple[str, str], dict[Scenario, float]] = {}


def _swept_cells(design: str, platform: str) -> dict[Scenario, float]:
    key = (design, platform)
    if key not in _SWEEP_CACHE:
        base = CarbonParams(
            n_vol=refdata.ANCHOR_VOLUME,
            lifetime_hours=refdata.ANCHOR_LIFETIME_YEARS * HOURS_PER_YEAR,
            grid_intensity=700.0,
            e_use_per_hour_kwh=1.0,
            rtl_synth_hours=0.0,
            hls_synth_hours=0.0,
            config_hours=0.0,
        )
        spec = SweepSpec(
            lifetimes_years=refdata.LIFETIMES_YEARS,
            volumes=refdata.VOLUMES,
            fixed_lifetime_for_volume_sweep_years=refdata.FIXED_LIFETIME_YEARS,
        )
        params = calibrated_params(refdata.anchor_kg(design, platform), base)
        _SWEEP_CACHE[key] = dict(sweep(spec, params, design_id=design, platform=platform).cells)
    return _SWEEP_CACHE[key]


def _grid_cases():
    cases = []
    for (design, platform), (lifetime_row, volume_row) in refdata.DEPLOY_GRID_1E4_KG.items():
        for years, cell in zip(refdata.LIFETIMES_YEARS, lifetime_row):
            cases.append(
                pytest.param(
                    design, platform, Scenario("lifetime_years", years), cell * 1e4,
                    id=f"{design}-{platform}-life{years}",
                )
            )
        for volume, cell in zip(refdata.VOLUMES, volume_row):
            marks = ()
            if (design, platform, volume) == ("d3", "ecologic", 6000):
                # Reference grid prints 0.052e4 here; exact linear scaling of
                # the row's own anchor gives 0.05268e4, a 1.31% gap that
                # exceeds the 1% gate. The printed value appears truncated
                # (rounding would give 0.053). Pinned as a strict xfail so the
                # divergence stays visible without loosening the tolerance.
                marks = pytest.mark.xfail(
                    strict=True,
                    reason="reference cell 0.052e4 kg is truncated; exact linear value "
                    "is 0.05268e4 kg (1.31% > 1%)",
                )
            cases.append(
                pytest.param(
                    design, platform, Scenario("volume", float(volume)), cell * 1e4,
                    id=f"{design}-{platform}-vol{volume}", marks=marks,
                )
            )
    return cases


@pytest.mark.criterion("C4", "deployment-carbon rows within 1% of reference")
@pytest.mark.parametrize("design,platform,scenario,expected_kg", _grid_cases())
def test_c4_reference_grid_cells(design, platform, scenario, expected_kg):
    cell = _swept_cells(design, platform)[scenario]
    assert abs(cell - expected_kg) / expected_kg <= 0.01


# --- C5: mean reduction claim ---------------------------------------------------


@pytest.mark.criterion("C5", "mean one-year reduction 99.68% +- 0.1pp")
class TestC5Reduction:
    def _comparisons(self):
        spec = SweepSpec(
            lifetimes_years=refdata.LIFETIMES_YEARS,
            volumes=refdata.VOLUMES,
            fixed_lifetime_for_volume_sweep_years=refdata.FIXED_LIFETIME_YEARS,
        )
        out = {}
        for design in refdata.DESIGNS:
            reports = {}
            for platform in refdata.PLATFORMS:
                cells = _swept_cells(design, platform)
                reports[platform] = sweep(
                    spec,
                    calibrated_params(
                        refdata.anchor_kg(design, platform),
                        CarbonParams(
                            n_vol=refdata.ANCHOR_VOLUME,
                            lifetime_hours=refdata.ANCHOR_LIFETIME_YEARS * HOURS_PER_YEAR,
                            grid_intensity=700.0,
                            e_use_per_hour_kwh=1.0,
                            rtl_synth_hours=0.0,
                            hls_synth_hours=0.0,
                            config_hours=0.0,
                        ),
                    ),
                    design_id=design,
                    platform=platform,
                )
                assert dict(reports[platform].cells) == cells
            out[design] = compare(reports["ecologic"], reports["fpga"])
        return out

    def test_mean_one_year_reduction(self):
        comparisons = self._comparisons()
        mean = mean_reduction_at(
            comparisons, Scenario("lifetime_years", 1.0), refdata.REDUCTION_DESIGNS
        )
        assert mean == pytest.approx(0.9968, abs=0.001)

    def test_d1_one_year_reduction_value(self):
        comparisons = self._comparisons()
        assert comparisons["d1"].cells[Scenario("lifetime_years", 1.0)] == pytest.approx(
            1 - 4.66 / 1490, abs=1e-9
        )

    def test_d5_inversion_reproduced_as_is(self):
        eco = _swept_cells("d5", "ecologic")[Scenario("lifetime_years", 1.0)]
        fpga = _swept_cells("d5", "fpga")[Scenario("lifetime_years", 1.0)]
        assert eco == pytest.approx(3.24e7, rel=1e-9)
        assert fpga == pytest.approx(1.24e7, rel=1e-9)
        assert eco > fpga  # the hybrid platform loses on this design; kept as-is


# --- C6: platform comparison ratios ---------------------------------------------


@pytest.mark.criterion("C6", "platform ratios (power ~480.8x, frequency 16x, slack echo)")
class TestC6Ratios:
    def test_power_ratio(self, six_ip_dataset):
        agg = platform_comparison(six_ip_dataset).aggregates
        assert agg["power_mw"]["baseline"] == pytest.approx(25000.0, rel=1e-12)
        assert agg["power_mw"]["ours"] == pytest.approx(52.0, rel=1e-12)
        assert abs(agg["power_mw"]["ratio"] - 480.8) <= 0.5

    def test_frequency_ratio_exact(self, six_ip_dataset):
        agg = platform_comparison(six_ip_dataset).aggregates
        assert agg["frequency_ghz"]["ours"] == 2.0
        assert agg["frequency_ghz"]["baseline"] == 0.125
        assert agg["frequency_ghz"]["ratio"] == 16.0

    def test_slack_values_echoed_verbatim(self, six_ip_dataset):
        comparison = platform_comparison(six_ip_dataset)
        agg = comparison.aggregates["slack_ns"]
        assert agg["ours"] == pytest.approx(9.8, rel=1e-12)
        assert agg["baseline"] == pytest.approx(5.1, rel=1e-12)
        rendered = compare_report_files(comparison, ("markdown",))["compare.md"]
        assert "| 9.8 | 5.1 |" in rendered


# --- C7: partition oracle equivalence --------------------------------------------


def _acceptance_oracle(areas, scores, capacity):
    """Second, independent exhaustive search (bitmask walk, exact rational
    totals), written separately from both the planner and the unit-test
    oracle. Returns the nearest floats of the best exact totals."""
    n = len(areas)
    exact_areas = [Fraction(a) for a in areas]
    exact_scores = [Fraction(s) for s in scores]
    limit = Fraction(capacity)
    used = [Fraction(0)] * (1 << n)
    value = [Fraction(0)] * (1 << n)
    best = None  # ((-score, area), mask), smallest key wins
    for mask in range(1 << n):
        if mask:
            # Extend the totals of the same subset without its lowest item.
            i = (mask & -mask).bit_length() - 1
            used[mask] = used[mask & (mask - 1)] + exact_areas[i]
            value[mask] = value[mask & (mask - 1)] + exact_scores[i]
        if used[mask] > limit:
            continue
        key = (-value[mask], used[mask])
        if best is None or key < best[0]:
            best = (key, mask)
    return float(-best[0][0]), float(best[0][1])


@pytest.mark.criterion("C7", "exact planner equals independent oracle on 200 instances")
def test_c7_partition_oracle_equivalence():
    rng = random.Random(2026)
    for trial in range(200):
        n = rng.randint(1, 12)
        areas = [rng.uniform(1.0, 100.0) for _ in range(n)]
        scores = [rng.uniform(0.0, 1.0) for _ in range(n)]
        capacity = rng.uniform(1.0, sum(areas) * 1.05)
        ids = [f"ip{i:02d}" for i in range(n)]
        dataset = Dataset(
            ips=tuple(
                IpProfile(
                    id=ip_id, name=ip_id, loc_changed=0, confidentiality_risk=0.0,
                    io_control_nets=0, internal_nets_and_state=1,
                    logic_mapped_to_efpga=0.0, total_logic=1.0,
                    f_max_asic=1.0, f_max_efpga=1.0, area=area,
                )
                for ip_id, area in zip(ids, areas)
            ),
            area_unit="gate_eq",
        )
        cards = [
            ScoreCard(
                ip_id=ip_id, adaptability=0.0, piracy_threat=0.0,
                performance_tolerance=1.0, resource_fit=0.0,
                composite=score, normalized=1.0,
            )
            for ip_id, score in zip(ids, scores)
        ]
        budget = FabricBudget(capacity)
        exact = plan_exact(cards, dataset, budget)
        greedy = plan_greedy(cards, dataset, budget)
        oracle_score, oracle_area = _acceptance_oracle(areas, scores, capacity)

        assert exact.total_score == oracle_score, f"trial {trial}"
        assert exact.used_area <= capacity
        validate_plan(greedy, dataset, budget)
        assert greedy.total_score <= exact.total_score, f"trial {trial}"


# --- C8: 1000-case property suites ------------------------------------------------


def _random_weights(rng):
    quad = [rng.uniform(0.01, 1.0) for _ in range(4)]
    tri = [rng.uniform(0.01, 1.0) for _ in range(3)]
    qs, ts = sum(quad), sum(tri)
    quad = [v / qs for v in quad]
    tri = [v / ts for v in tri]
    return validate_weights(
        ScoreWeights(
            alpha=quad[0], beta=quad[1], gamma=quad[2], delta=1.0 - quad[0] - quad[1] - quad[2],
            mu=tri[0], nu=tri[1], xi=1.0 - tri[0] - tri[1],
        )
    )


@pytest.mark.criterion("C8", "1000-case randomized property suites")
class TestC8Properties:
    CASES = 1000

    def test_score_ranges_and_composite_bounds(self):
        rng = random.Random(81)
        for _ in range(self.CASES):
            weights = _random_weights(rng)
            max_loc = rng.randint(0, 10_000)
            loc = rng.randint(0, max_loc) if max_loc else 0
            a = adaptability(loc, max_loc)
            e = exposure(rng.randint(0, 5000), rng.randint(1, 5000))
            r = redaction_ratio(rng.uniform(0, 1), 1.0)
            o = piracy_threat(rng.uniform(0, 1), e, r, weights)
            p = performance_tolerance(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            a_min = rng.uniform(1, 100)
            a_max = a_min + rng.uniform(0, 1000)
            rf = resource_fit(rng.uniform(a_min, a_max), a_min, a_max)
            for sub in (a, o, p, rf):
                assert 0.0 <= sub <= 1.0
            comp = composite(a, o, p, rf, weights)
            assert 0.0 <= comp <= 1.0
            assert min(a, o, p, rf) - 1e-12 <= comp <= max(a, o, p, rf) + 1e-12

    def test_adaptability_and_resource_fit_monotone(self):
        rng = random.Random(82)
        for _ in range(self.CASES):
            top = rng.randint(1, 10_000)
            lo = rng.randint(0, top)
            hi = rng.randint(lo, top)
            assert adaptability(lo, top) <= adaptability(hi, top)
            a_min = rng.uniform(1, 100)
            a_max = a_min + rng.uniform(0.001, 1000)
            x = rng.uniform(a_min, a_max)
            y = rng.uniform(x, a_max)
            assert resource_fit(x, a_min, a_max) >= resource_fit(y, a_min, a_max)
            f_asic = rng.uniform(0.1, 5.0)
            fe_lo = rng.uniform(0.05, 5.0)
            fe_hi = fe_lo + rng.uniform(0, 2.0)
            assert performance_tolerance(f_asic, fe_lo) <= performance_tolerance(f_asic, fe_hi)

    def test_normalization_argmax_invariance(self):
        rng = random.Random(83)
        for _ in range(self.CASES):
            values = [rng.uniform(1e-6, 100.0) for _ in range(rng.randint(1, 12))]
            scale = rng.uniform(1e-4, 1e4)
            base = normalize_composites(values)
            scaled = normalize_composites([v * scale for v in values])
            assert base.index(max(base)) == scaled.index(max(scaled))
            assert base.index(max(base)) == values.index(max(values))
            order_base = sorted(range(len(values)), key=lambda i: (-base[i], i))
            order_scaled = sorted(range(len(values)), key=lambda i: (-scaled[i], i))
            assert order_base == order_scaled

    def _random_params(self, rng, zero_hours=False):
        return CarbonParams(
            n_vol=rng.randint(1, 10_000_000),
            lifetime_hours=rng.uniform(1.0, 1e6),
            grid_intensity=rng.uniform(1e-3, 1e3),
            e_use_per_hour_kwh=rng.uniform(1e-12, 1.0),
            cpu_power_per_core_w=rng.uniform(1.0, 100.0),
            cpu_cores=rng.randint(1, 64),
            rtl_synth_hours=0.0 if zero_hours else rng.uniform(0.0, 10.0),
            hls_synth_hours=0.0 if zero_hours else rng.uniform(0.0, 10.0),
            config_hours=0.0 if zero_hours else rng.uniform(0.0, 10.0),
        )

    def test_carbon_linearity_and_additivity(self):
        rng = random.Random(84)
        for _ in range(self.CASES):
            p = self._random_params(rng, zero_hours=True)
            runtime = deploy_carbon(p)
            assert deploy_carbon(replace(p, n_vol=2 * p.n_vol)) == 2 * runtime
            assert deploy_carbon(replace(p, lifetime_hours=2 * p.lifetime_hours)) == 2 * runtime
            factor = rng.uniform(1e-3, 1e3)
            scaled = replace(p, e_use_per_hour_kwh=p.e_use_per_hour_kwh * factor)
            assert deploy_carbon(scaled) == pytest.approx(runtime * factor, rel=1e-9)
            entries = [
                (rng.uniform(1.0, 1e5), self._random_params(rng))
                for _ in range(rng.randint(2, 5))
            ]
            cut = rng.randint(1, len(entries) - 1)
            assert total_cfp(entries) == pytest.approx(
                total_cfp(entries[:cut]) + total_cfp(entries[cut:]), rel=1e-9
            )

    def test_calibration_round_trip_to_1e9_relative(self):
        rng = random.Random(85)
        for _ in range(self.CASES):
            p = self._random_params(rng)
            anchor = app_dev_carbon(p) + rng.uniform(1e-3, 1e9)
            rate = calibrate_e_use(anchor, p)
            reproduced = deploy_carbon(replace(p, e_use_per_hour_kwh=rate))
            assert abs(reproduced - anchor) <= 1e-9 * anchor

    def test_remap_never_worsens_min_slack(self):
        rng = random.Random(86)
        curve = SlackCurve(
            platform="ecologic", points=((25.0, 10.0), (100.0, 6.5), (140.0, 4.0))
        )
        for _ in range(self.CASES):
            regions = [
                FabricRegion(f"r{i}", rng.uniform(2.0, 10.0), rng.uniform(0.2, 1.0))
                for i in range(rng.randint(1, 5))
            ]
            blocks = []
            for i in range(rng.randint(1, 5)):
                host = rng.choice(regions)
                used = sum(b.size for b in blocks if b.region == host.id)
                free = host.capacity - used
                if free <= 0.05:
                    continue
                blocks.append(LogicBlock(f"b{i}", rng.uniform(0.05, free), host.id))
            if not blocks:
                continue
            plan = remap(blocks, regions, curve, rng.uniform(25.0, 140.0))
            assert plan.min_slack_after >= plan.min_slack_before


# --- C9: aging fixture ordering -----------------------------------------------------


@pytest.mark.criterion("C9", "slack fixture ordering at 130C and below 60C")
class TestC9AgingFixtures:
    def test_ordering_at_130(self, demo_curves):
        eco = slack_at(demo_curves["ecologic"], 130.0)
        asic = slack_at(demo_curves["asic"], 130.0)
        fpga = slack_at(demo_curves["fpga"], 130.0)
        assert eco > 5.0
        assert asic == pytest.approx(2.0, abs=0.5)
        assert eco > fpga > asic

    def test_all_platforms_above_eight_below_sixty(self, demo_curves):
        for platform, curve in demo_curves.items():
            for temp in (25.0, 30.0, 40.0, 50.0, 59.0, 59.99):
                assert slack_at(curve, temp) > 8.0, (platform, temp)
