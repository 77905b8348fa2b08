from __future__ import annotations

import math
import re
from dataclasses import replace

import pytest

import refdata
from ecoplan.carbon import (
    HOURS_PER_YEAR,
    CarbonComparison,
    CarbonParams,
    CarbonReport,
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
from ecoplan.model import ValidationError

# Documented deployment parameter set: 1M units, 15-year runtime default,
# 700 kg CO2/kWh grid, 10 W/core on 8 cores, 2.5 h RTL + 1.0 h HLS synthesis.
TABLE_PARAMS = CarbonParams(e_use_per_hour_kwh=1e-6)


def test_defaults_match_documented_parameter_set():
    p = TABLE_PARAMS
    assert (p.n_vol, p.lifetime_hours, p.grid_intensity) == (1_000_000, 131_400.0, 700.0)
    assert (p.cpu_power_per_core_w, p.cpu_cores) == (10.0, 8)
    assert (p.rtl_synth_hours, p.hls_synth_hours, p.config_hours) == (2.5, 1.0, 0.0)


def reference_spec() -> SweepSpec:
    return SweepSpec(
        lifetimes_years=refdata.LIFETIMES_YEARS,
        volumes=refdata.VOLUMES,
        fixed_lifetime_for_volume_sweep_years=refdata.FIXED_LIFETIME_YEARS,
    )


def anchor_base() -> CarbonParams:
    # Anchored rows scale exactly linearly, so the synthesis-hour term must
    # be zero for the reference grids (their low-volume cells carry no
    # constant offset).
    return CarbonParams(
        n_vol=refdata.ANCHOR_VOLUME,
        lifetime_hours=refdata.ANCHOR_LIFETIME_YEARS * HOURS_PER_YEAR,
        grid_intensity=700.0,
        e_use_per_hour_kwh=1.0,
        rtl_synth_hours=0.0,
        hls_synth_hours=0.0,
        config_hours=0.0,
    )


class TestAppDevCarbon:
    def test_documented_parameter_set(self):
        # 10 W * 8 cores * 3.5 h = 0.28 kWh; times 700 -> 196 kg
        assert app_dev_carbon(TABLE_PARAMS) == pytest.approx(196.0, rel=1e-12)

    def test_zero_synthesis_hours(self):
        p = replace(TABLE_PARAMS, rtl_synth_hours=0.0, hls_synth_hours=0.0)
        assert app_dev_carbon(p) == 0.0

    def test_linear_in_cores(self):
        doubled = replace(TABLE_PARAMS, cpu_cores=16)
        assert app_dev_carbon(doubled) == pytest.approx(2 * app_dev_carbon(TABLE_PARAMS))


class TestDeployCarbon:
    def test_zero_volume_rejected(self):
        with pytest.raises(ValidationError, match="^n_vol must be >= 1$"):
            replace(TABLE_PARAMS, n_vol=0)

    def test_halving_lifetime_halves_runtime_term(self):
        p = TABLE_PARAMS
        halved = replace(p, lifetime_hours=p.lifetime_hours / 2)
        runtime = deploy_carbon(p) - app_dev_carbon(p)
        runtime_halved = deploy_carbon(halved) - app_dev_carbon(halved)
        assert runtime_halved == runtime / 2

    def test_anchored_cell_reproduction(self):
        # calibrating to the d1 1-year cell makes the 2-year cell exactly double
        base = anchor_base()
        params = calibrated_params(refdata.anchor_kg("d1", "ecologic"), base)
        assert deploy_carbon(params) == pytest.approx(4.66e4, rel=1e-9)
        two_year = replace(params, lifetime_hours=2 * params.lifetime_hours)
        assert deploy_carbon(two_year) == pytest.approx(9.32e4, rel=1e-9)


NOT_FINITE = ("deployment carbon from n_vol, grid_intensity, e_use_per_hour_kwh and "
              "lifetime_hours must be finite")


class TestNonFiniteCarbon:
    """Accepted params whose deployment carbon is not a finite float raise, not return it."""

    def test_nan_from_an_infinite_volume_term_times_underflowed_hours(self):
        params = CarbonParams(e_use_per_hour_kwh=1e-300, n_vol=10**6, grid_intensity=1e308,
                              lifetime_hours=1e-300)
        with pytest.raises(ValidationError) as info:
            deploy_carbon(params)
        assert str(info.value) == NOT_FINITE

    def test_infinite_runtime_term(self):
        with pytest.raises(ValidationError) as info:
            deploy_carbon(CarbonParams(e_use_per_hour_kwh=1e300, lifetime_hours=1e10))
        assert str(info.value) == NOT_FINITE

    def test_total_of_infinite_entries(self):
        entries = [(100.0, CarbonParams(e_use_per_hour_kwh=1e300))] * 2
        with pytest.raises(ValidationError) as info:
            total_cfp(entries)
        assert str(info.value) == NOT_FINITE

    def test_total_whose_sum_overflows(self):
        # each entry is finite (about 1e308 kg); their sum is not
        params = CarbonParams(e_use_per_hour_kwh=1e308, n_vol=1, grid_intensity=1.0)
        assert math.isfinite(deploy_carbon(replace(params, lifetime_hours=1.0)))
        with pytest.raises(ValidationError) as info:
            total_cfp([(1.0, params)] * 2)
        assert str(info.value) == "total_cfp: the sum of deployment carbon overflows"


class TestTotalCfp:
    def test_single_application(self):
        value = total_cfp([(TABLE_PARAMS.lifetime_hours, TABLE_PARAMS)])
        assert value == pytest.approx(deploy_carbon(TABLE_PARAMS), rel=1e-12)

    def test_n_identical_applications(self):
        entries = [(TABLE_PARAMS.lifetime_hours, TABLE_PARAMS)] * 4
        assert total_cfp(entries) == pytest.approx(4 * deploy_carbon(TABLE_PARAMS), rel=1e-12)

    def test_five_application_spreadsheet_oracle(self):
        # Independent accumulation, one deploy expression per row.
        lifetimes = [8760.0, 17520.0, 4380.0, 26280.0, 8760.0]
        rates = [2e-6, 1e-6, 5e-7, 3e-6, 8e-7]
        entries = []
        expected = 0.0
        for hours, rate in zip(lifetimes, rates):
            p = replace(TABLE_PARAMS, e_use_per_hour_kwh=rate)
            entries.append((hours, p))
            expected += (
                p.n_vol * p.grid_intensity * (rate * hours)
                + p.cpu_power_per_core_w * p.cpu_cores * 3.5 / 1000.0 * p.grid_intensity
            )
        assert total_cfp(entries) == pytest.approx(expected, rel=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            total_cfp([])

    def test_additivity(self):
        part_a = [(8760.0, TABLE_PARAMS), (4380.0, TABLE_PARAMS)]
        part_b = [(17520.0, replace(TABLE_PARAMS, e_use_per_hour_kwh=3e-6))]
        assert total_cfp(part_a + part_b) == pytest.approx(
            total_cfp(part_a) + total_cfp(part_b), rel=1e-12
        )


class TestCalibration:
    def test_round_trip_recovers_rate(self):
        anchor = deploy_carbon(TABLE_PARAMS)
        rate = calibrate_e_use(anchor, TABLE_PARAMS)
        assert rate == pytest.approx(TABLE_PARAMS.e_use_per_hour_kwh, rel=1e-9)

    def test_reproduces_anchor(self):
        rate = calibrate_e_use(5.5e5, TABLE_PARAMS)
        assert deploy_carbon(
            replace(TABLE_PARAMS, e_use_per_hour_kwh=rate)
        ) == pytest.approx(5.5e5, rel=1e-9)

    def test_anchor_below_app_dev_floor_rejected(self):
        floor = app_dev_carbon(TABLE_PARAMS)
        assert floor > 0  # synthesis hours > 0
        for anchor in (floor * 0.5, floor):  # an anchor at the floor leaves no runtime term
            message = f"infeasible anchor: {anchor} kg does not exceed the app-dev floor {floor} kg"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                calibrate_e_use(anchor, TABLE_PARAMS)


class TestSweep:
    def test_unit_spec_single_cell(self):
        spec = SweepSpec(
            lifetimes_years=(1.0,), volumes=(1_000_000,),
            fixed_lifetime_for_volume_sweep_years=1.0,
        )
        base = anchor_base()
        report = sweep(spec, base, design_id="d1", platform="ecologic")
        lifetime_cell = report.cells[Scenario("lifetime_years", 1.0)]
        volume_cell = report.cells[Scenario("volume", 1_000_000.0)]
        assert lifetime_cell == pytest.approx(deploy_carbon(base), rel=1e-12)
        assert volume_cell == pytest.approx(lifetime_cell, rel=1e-12)

    @pytest.mark.parametrize("design", refdata.DESIGNS)
    @pytest.mark.parametrize("platform", refdata.PLATFORMS)
    def test_rows_scale_linearly_from_anchor(self, design, platform):
        base = anchor_base()
        params = calibrated_params(refdata.anchor_kg(design, platform), base)
        report = sweep(reference_spec(), params, design_id=design, platform=platform)
        anchor = refdata.anchor_kg(design, platform)
        for years in refdata.LIFETIMES_YEARS:
            cell = report.cells[Scenario("lifetime_years", years)]
            assert cell == pytest.approx(anchor * years, rel=1e-9)
        for volume in refdata.VOLUMES:
            cell = report.cells[Scenario("volume", float(volume))]
            expected = anchor * refdata.FIXED_LIFETIME_YEARS * volume / refdata.ANCHOR_VOLUME
            assert cell == pytest.approx(expected, rel=1e-9)

    def test_cells_run_lifetimes_then_volumes_each_ascending(self):
        spec = SweepSpec(lifetimes_years=(2.5, 0.2, 1), volumes=(90_000, 1000, 6000),
                         fixed_lifetime_for_volume_sweep_years=2.0)
        report = sweep(spec, anchor_base(), design_id="d1", platform="ecologic")
        assert list(report.cells) == [
            Scenario("lifetime_years", 0.2), Scenario("lifetime_years", 1.0),
            Scenario("lifetime_years", 2.5), Scenario("volume", 1000.0),
            Scenario("volume", 6000.0), Scenario("volume", 90_000.0),
        ]

    @pytest.mark.parametrize(
        "lifetimes, fixed, key",
        [((1.0, 1e305), 1.0, "lifetimes_years"),
         ((1.0,), 1e305, "fixed_lifetime_for_volume_sweep_years")],
        ids=["lifetime-cell", "volume-cells"],
    )
    def test_lifetime_overflowing_to_inf_is_rejected(self, lifetimes, fixed, key):
        spec = SweepSpec(lifetimes_years=lifetimes, volumes=(1,),
                         fixed_lifetime_for_volume_sweep_years=fixed)
        message = f"carbon sweep {key} in hours must be finite, got inf"
        with pytest.raises(ValidationError, match=message):
            sweep(spec, anchor_base(), design_id="d1", platform="ecologic")


class TestCompare:
    def _reports(self, design):
        base = anchor_base()
        spec = reference_spec()
        ours = sweep(
            spec, calibrated_params(refdata.anchor_kg(design, "ecologic"), base),
            design_id=design, platform="ecologic",
        )
        baseline = sweep(
            spec, calibrated_params(refdata.anchor_kg(design, "fpga"), base),
            design_id=design, platform="fpga",
        )
        return ours, baseline

    def test_identical_reports_reduce_to_zero(self):
        ours, _ = self._reports("d1")
        result = compare(ours, ours)
        assert all(v == 0.0 for v in result.cells.values())

    def test_d1_one_year_reduction(self):
        ours, baseline = self._reports("d1")
        result = compare(ours, baseline)
        one_year = result.cells[Scenario("lifetime_years", 1.0)]
        assert one_year == pytest.approx(1 - 4.66 / 1490, abs=1e-9)

    def test_grid_mismatch_rejected(self):
        ours, baseline = self._reports("d1")
        smaller = replace(
            baseline,
            cells={Scenario("lifetime_years", 1.0): baseline.cells[Scenario("lifetime_years", 1.0)]},
        )
        with pytest.raises(ValidationError, match="grid mismatch"):
            compare(ours, smaller)

    def test_mean_reduction_over_declared_subset(self):
        comparisons = {}
        for design in refdata.DESIGNS:
            ours, baseline = self._reports(design)
            comparisons[design] = compare(ours, baseline)
        mean = mean_reduction_at(
            comparisons, Scenario("lifetime_years", 1.0), refdata.REDUCTION_DESIGNS
        )
        expected = math.fsum(
            1 - refdata.anchor_kg(d, "ecologic") / refdata.anchor_kg(d, "fpga")
            for d in refdata.REDUCTION_DESIGNS
        ) / len(refdata.REDUCTION_DESIGNS)
        assert mean == pytest.approx(expected, abs=1e-12)
        # d5 runs hotter on the hybrid platform; the inversion is preserved
        assert comparisons["d5"].cells[Scenario("lifetime_years", 1.0)] < 0


ONE_YEAR = Scenario("lifetime_years", 1.0)
COMPARISONS = {"d1": CarbonComparison("d1", {ONE_YEAR: 0.5}, 0.5)}
GUARDS = [
    # (call, exception type, exact message)
    pytest.param(lambda: compare(CarbonReport("d1", "ecologic", {ONE_YEAR: 1.0}),
                                 CarbonReport("d1", "fpga", {ONE_YEAR: 0.0})),
                 ValidationError,
                 "baseline cell Scenario(kind='lifetime_years', value=1.0) must be > 0, got 0.0",
                 id="compare-zero-baseline"),
    pytest.param(lambda: mean_reduction_at(COMPARISONS, ONE_YEAR, []), ValidationError,
                 "design subset for the mean reduction must be non-empty", id="mean-no-designs"),
    pytest.param(lambda: mean_reduction_at(COMPARISONS, ONE_YEAR, ["d2"]), ValidationError,
                 "no comparison available for design 'd2'", id="mean-unknown-design"),
    pytest.param(lambda: mean_reduction_at(COMPARISONS, Scenario("volume", 1.0), ["d1"]),
                 ValidationError,
                 "design 'd1' has no cell for Scenario(kind='volume', value=1.0)",
                 id="mean-missing-cell"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_exact_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestParamValidation:
    def test_negative_hours_rejected(self):
        with pytest.raises(ValidationError, match="rtl_synth_hours"):
            replace(TABLE_PARAMS, rtl_synth_hours=-1.0)

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid_intensity"):
            replace(TABLE_PARAMS, grid_intensity=0.0)

    def test_sweep_spec_rejects_empty_lists(self):
        with pytest.raises(ValidationError):
            SweepSpec(lifetimes_years=(), volumes=(1,),
                      fixed_lifetime_for_volume_sweep_years=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lifetimes_years", (1.0, 10**400), "carbon sweep lifetimes_years must be finite, "
             "got an integer too large for a float"),
            ("volumes", (10**400,), "carbon sweep volumes must be finite, "
             "got an integer too large for a float"),
            ("fixed_lifetime_for_volume_sweep_years", 10**400,
             "carbon sweep fixed_lifetime_for_volume_sweep_years must be finite, "
             "got an integer too large for a float"),
            ("lifetimes_years", (0,), "carbon sweep lifetimes_years must be > 0"),
            ("volumes", (1, 0), "carbon sweep volumes must be >= 1"),
            ("fixed_lifetime_for_volume_sweep_years", -1.0,
             "carbon sweep fixed_lifetime_for_volume_sweep_years must be > 0"),
            ("volumes", (1.5,), "carbon sweep volumes must be an integer, got 1.5"),
            ("volumes", (True,), "carbon sweep volumes must be an integer, got True"),
            ("lifetimes_years", ("2",), "carbon sweep lifetimes_years must be a real number, "
             "got '2'"),
            ("lifetimes_years", (float("nan"),), "carbon sweep lifetimes_years must be finite, "
             "got nan"),
            ("lifetimes_years", (1, 2.0, 1.0), "carbon sweep lifetimes_years repeats 1.0"),
            ("volumes", (1000, 6000, 1000), "carbon sweep volumes repeats 1000.0"),
            # distinct integers that are one float, so one cell
            ("volumes", (2**53, 2**53 + 1), "carbon sweep volumes repeats 9007199254740992.0"),
        ],
        ids=["lifetime-too-large", "volume-too-large", "fixed-too-large", "lifetime-zero",
             "volume-zero", "fixed-negative", "volume-float", "volume-bool", "lifetime-string",
             "lifetime-nan", "lifetime-repeat", "volume-repeat", "volume-repeat-as-float"],
    )
    def test_sweep_spec_checks_every_entry(self, field, value, message):
        spec = dict(lifetimes_years=(1.0,), volumes=(1,), fixed_lifetime_for_volume_sweep_years=1.0)
        spec[field] = value
        with pytest.raises(ValidationError) as info:
            SweepSpec(**spec)
        assert str(info.value) == message
