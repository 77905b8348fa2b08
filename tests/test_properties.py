from __future__ import annotations

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ecoplan.carbon import (
    HOURS_PER_YEAR,
    CarbonParams,
    Scenario,
    SweepSpec,
    app_dev_carbon,
    calibrate_e_use,
    deploy_carbon,
    sweep,
    total_cfp,
)
from ecoplan.model import Dataset, IpProfile, ScoreWeights, ValidationError, validate_weights
from ecoplan.partition import FabricBudget, plan_exact, plan_greedy, validate_plan
from ecoplan.scoring import (
    ScoreCard,
    adaptability,
    composite,
    normalize_composites,
    performance_tolerance,
    piracy_threat,
    rank_cards,
    resource_fit,
    score_dataset,
)

finite = dict(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, **finite)
positive = st.floats(min_value=1e-6, max_value=1e6, **finite)


@st.composite
def weight_vectors(draw):
    a, b, c, d = (draw(st.floats(min_value=0.01, max_value=1.0, **finite)) for _ in range(4))
    total = a + b + c + d
    m, n = (draw(st.floats(min_value=0.01, max_value=1.0, **finite)) for _ in range(2))
    k = draw(st.floats(min_value=0.01, max_value=1.0, **finite))
    tri = m + n + k
    return ScoreWeights(
        alpha=a / total, beta=b / total, gamma=c / total,
        delta=1.0 - a / total - b / total - c / total,
        mu=m / tri, nu=n / tri, xi=1.0 - m / tri - n / tri,
    )


@st.composite
def accepted_piracy_weights(draw):
    """Any mu, nu, xi that ScoreWeights accepts: their sum may miss 1 by the tolerance."""
    mu, nu = draw(unit), draw(unit)
    try:
        return replace(ScoreWeights.default(), mu=mu, nu=nu,
                       xi=1.0 - mu - nu + draw(st.floats(min_value=-1e-9, max_value=1e-9)))
    except ValidationError:
        reject()


@st.composite
def ip_profiles(draw, ip_id="ipx"):
    total_logic = draw(positive)
    mapped = draw(st.floats(min_value=0.0, max_value=1.0, **finite)) * total_logic
    return IpProfile(
        id=ip_id,
        name=ip_id,
        loc_changed=draw(st.integers(min_value=0, max_value=100_000)),
        confidentiality_risk=draw(unit),
        io_control_nets=draw(st.integers(min_value=0, max_value=10_000)),
        internal_nets_and_state=draw(st.integers(min_value=1, max_value=10_000)),
        logic_mapped_to_efpga=min(mapped, total_logic),
        total_logic=total_logic,
        f_max_asic=draw(positive),
        f_max_efpga=draw(positive),
        area=draw(positive),
    )


@st.composite
def datasets(draw, max_ips=8):
    count = draw(st.integers(min_value=1, max_value=max_ips))
    ips = tuple(draw(ip_profiles(ip_id=f"ip{i:02d}")) for i in range(count))
    return Dataset(ips=ips, area_unit="gate_eq")


class TestScoreRangeProperties:
    @given(data=datasets(), weights=weight_vectors())
    @settings(max_examples=150, deadline=None)
    def test_all_scores_in_unit_interval(self, data, weights):
        for card in score_dataset(data, weights):
            assert 0.0 <= card.adaptability <= 1.0
            assert 0.0 <= card.piracy_threat <= 1.0
            assert 0.0 <= card.performance_tolerance <= 1.0
            assert 0.0 <= card.resource_fit <= 1.0
            assert 0.0 <= card.composite <= 1.0
            assert 0.0 <= card.normalized <= 1.0

    @given(data=datasets(), weights=weight_vectors())
    @settings(max_examples=100, deadline=None)
    def test_boundary_attainment(self, data, weights):
        cards = {c.ip_id: c for c in score_dataset(data, weights)}
        most_churned = max(data.ips, key=lambda ip: ip.loc_changed)
        smallest = min(data.ips, key=lambda ip: ip.area)
        largest = max(data.ips, key=lambda ip: ip.area)
        if most_churned.loc_changed > 0:
            assert cards[most_churned.id].adaptability == 1.0
        assert cards[smallest.id].resource_fit == 1.0
        if largest.area > smallest.area:
            assert cards[largest.id].resource_fit == 0.0
        assert max(c.normalized for c in cards.values()) == 1.0

    @given(
        loc_a=st.integers(min_value=0, max_value=1000),
        loc_b=st.integers(min_value=0, max_value=1000),
        extra=st.integers(min_value=0, max_value=1000),
    )
    def test_adaptability_monotone_in_churn(self, loc_a, loc_b, extra):
        lo, hi = sorted((loc_a, loc_b))
        top = hi + extra
        assert adaptability(lo, top) <= adaptability(hi, top)

    @given(
        area_a=positive, area_b=positive,
        bounds=st.tuples(positive, positive),
    )
    def test_resource_fit_antitone_in_area(self, area_a, area_b, bounds):
        lo_area, hi_area = sorted((area_a, area_b))
        a_min = min(lo_area, *bounds)
        a_max = max(hi_area, *bounds)
        assert resource_fit(lo_area, a_min, a_max) >= resource_fit(hi_area, a_min, a_max)

    @given(f_asic=positive, f_a=positive, f_b=positive)
    def test_performance_tolerance_monotone_in_fabric_speed(self, f_asic, f_a, f_b):
        lo, hi = sorted((f_a, f_b))
        assert performance_tolerance(f_asic, lo) <= performance_tolerance(f_asic, hi)

    @given(subs=st.tuples(unit, unit, unit, unit), weights=weight_vectors())
    def test_composite_bounded_by_subscores(self, subs, weights):
        value = composite(*subs, weights)
        assert min(subs) - 1e-12 <= value <= max(subs) + 1e-12

    @given(c=unit, e=st.floats(min_value=0, max_value=100, **finite), r=unit,
           weights=weight_vectors())
    def test_piracy_threat_in_unit_interval(self, c, e, r, weights):
        assert 0.0 <= piracy_threat(c, e, r, weights) <= 1.0

    @given(weights=accepted_piracy_weights(), internal=st.integers(1, 10_000),
           extra=st.integers(0, 10_000), logic=positive)
    @example(weights=replace(ScoreWeights.default(), mu=0.56, nu=0.34, xi=0.1),
             internal=100, extra=0, logic=2000.0)  # sums to 1.0000000000000002
    def test_worst_piracy_inputs_score_at_most_one(self, weights, internal, extra, logic):
        """C = 1, E >= 1 and R = 1 under any accepted weights."""
        ip = IpProfile(id="ip", name="ip", loc_changed=0, confidentiality_risk=1.0,
                       io_control_nets=internal + extra, internal_nets_and_state=internal,
                       logic_mapped_to_efpga=logic, total_logic=logic, f_max_asic=1.0,
                       f_max_efpga=1.0, area=1.0)
        (card,) = score_dataset(Dataset(ips=(ip,), area_unit="gate_eq"), weights)
        assert card.piracy_threat <= 1.0
        assert piracy_threat(1.0, card.exposure, 1.0, weights) <= 1.0


class TestNormalizationProperties:
    @given(
        values=st.lists(st.floats(min_value=1e-9, max_value=1e6, **finite), min_size=1, max_size=20),
        scale=st.floats(min_value=1e-6, max_value=1e6, **finite),
    )
    @example(values=[999999.9999999999, 1000000.0], scale=1.1)
    @example(values=[999999.9999999999, 1000000.0], scale=274877.99777670717)
    def test_argmax_invariant_under_positive_scaling(self, values, scale):
        # Rounding can tie the maximum with another value after scaling, never
        # put another value above it.
        top = values.index(max(values))
        base = normalize_composites(values)
        scaled = normalize_composites([v * scale for v in values])
        assert base.index(max(base)) == top
        assert scaled[top] == max(scaled)

    @given(
        values=st.lists(st.floats(min_value=1e-9, max_value=1e6, **finite), min_size=2, max_size=20),
        scale=st.floats(min_value=1e-6, max_value=1e6, **finite),
    )
    @example(values=[999999.0, 1e-09, 1.0000000000000003e-09], scale=41.0)
    def test_sort_order_invariant_under_positive_scaling(self, values, scale):
        # Rounding can make two distinct values equal after scaling, never swap them.
        base = normalize_composites(values)
        scaled = normalize_composites([v * scale for v in values])
        for i, j in itertools.permutations(range(len(values)), 2):
            if base[i] > base[j]:
                assert scaled[i] >= scaled[j]



class TestRankProperties:
    @given(
        keys=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from("abcd")),
                      max_size=30),
        areas=st.fixed_dictionaries({i: st.sampled_from([0.0, 1.0, 2.0]) for i in "abcd"}),
        order=st.randoms(use_true_random=False),
    )
    def test_rank_order_is_composite_down_area_up_id_up_then_given_order(
        self, keys, areas, order
    ):
        # Repeated composites, areas and ids make ties, which keep their given order.
        cards = [ScoreCard(ip_id, 0.0, 0.0, 0.0, 0.0, c, 0.0) for c, ip_id in keys]
        order.shuffle(cards)
        ranked = rank_cards(iter(cards), areas)
        assert sorted(map(id, ranked)) == sorted(map(id, cards))
        position = {id(card): i for i, card in enumerate(cards)}
        ranks = [(-c.composite, areas[c.ip_id], c.ip_id, position[id(c)]) for c in ranked]
        assert ranks == sorted(ranks)


class TestPartitionProperties:
    @given(data=datasets(max_ips=12), weights=weight_vectors(),
           capacity=st.floats(min_value=1.0, max_value=1e7, **finite))
    @settings(max_examples=100, deadline=None)
    def test_exact_dominates_greedy_and_both_feasible(self, data, weights, capacity):
        cards = score_dataset(data, weights)
        budget = FabricBudget(capacity)
        greedy = plan_greedy(cards, data, budget)
        exact = plan_exact(cards, data, budget)
        validate_plan(greedy, data, budget)
        validate_plan(exact, data, budget)
        assert exact.total_score >= greedy.total_score
        assert greedy.used_area <= capacity
        assert exact.used_area <= capacity

    @given(data=datasets(max_ips=10), weights=weight_vectors())
    @settings(max_examples=50, deadline=None)
    def test_plans_deterministic(self, data, weights):
        cards = score_dataset(data, weights)
        budget = FabricBudget(sum(ip.area for ip in data.ips) / 2 + 1.0)
        assert plan_greedy(cards, data, budget) == plan_greedy(cards, data, budget)
        assert plan_exact(cards, data, budget) == plan_exact(cards, data, budget)


carbon_params = st.builds(
    CarbonParams,
    n_vol=st.integers(min_value=1, max_value=10_000_000),
    lifetime_hours=st.floats(min_value=1.0, max_value=1e6, **finite),
    grid_intensity=st.floats(min_value=1e-3, max_value=1e3, **finite),
    e_use_per_hour_kwh=st.floats(min_value=1e-12, max_value=1.0, **finite),
    cpu_power_per_core_w=st.floats(min_value=1.0, max_value=100.0, **finite),
    cpu_cores=st.integers(min_value=1, max_value=64),
    rtl_synth_hours=st.floats(min_value=0.0, max_value=100.0, **finite),
    hls_synth_hours=st.floats(min_value=0.0, max_value=100.0, **finite),
    config_hours=st.floats(min_value=0.0, max_value=100.0, **finite),
)


class TestCarbonProperties:
    @given(params=carbon_params)
    def test_outputs_non_negative(self, params):
        assert app_dev_carbon(params) >= 0.0
        assert deploy_carbon(params) >= 0.0

    @given(params=carbon_params)
    def test_runtime_term_doubles_exactly_with_power_of_two_scaling(self, params):
        # zero synthesis hours isolate the runtime term, where doubling any
        # linear factor is exact in IEEE arithmetic
        p = replace(params, rtl_synth_hours=0.0, hls_synth_hours=0.0, config_hours=0.0)
        runtime = deploy_carbon(p)
        assert deploy_carbon(replace(p, n_vol=2 * p.n_vol)) == 2 * runtime
        assert deploy_carbon(replace(p, lifetime_hours=2 * p.lifetime_hours)) == 2 * runtime
        # and the app-dev term is a pure constant offset on top of it
        assert deploy_carbon(params) == pytest.approx(
            runtime + app_dev_carbon(params), rel=1e-12
        )

    @given(params=carbon_params, factor=st.floats(min_value=1e-3, max_value=1e3, **finite))
    def test_runtime_term_linear_in_rate(self, params, factor):
        p = replace(params, rtl_synth_hours=0.0, hls_synth_hours=0.0, config_hours=0.0)
        runtime = deploy_carbon(p)
        scaled = replace(p, e_use_per_hour_kwh=p.e_use_per_hour_kwh * factor)
        assert deploy_carbon(scaled) == pytest.approx(runtime * factor, rel=1e-9)

    @given(
        entries=st.lists(
            st.tuples(st.floats(min_value=1.0, max_value=1e5, **finite), carbon_params),
            min_size=1, max_size=6,
        ),
        split=st.integers(min_value=1, max_value=5),
    )
    def test_total_cfp_additive(self, entries, split):
        cut = min(split, len(entries))
        left, right = entries[:cut], entries[cut:]
        whole = total_cfp(entries)
        parts = total_cfp(left) + (total_cfp(right) if right else 0.0)
        assert whole == pytest.approx(parts, rel=1e-12)

    @given(params=carbon_params, margin=st.floats(min_value=1e-6, max_value=1e9, **finite))
    def test_calibration_round_trip(self, params, margin):
        anchor = app_dev_carbon(params) + margin
        rate = calibrate_e_use(anchor, params)
        reproduced = deploy_carbon(replace(params, e_use_per_hour_kwh=rate))
        assert reproduced == pytest.approx(anchor, rel=1e-9)


sweep_specs = st.builds(
    SweepSpec,
    lifetimes_years=st.lists(
        st.floats(min_value=1e-3, max_value=1e3, **finite), min_size=1, max_size=5, unique=True
    ).map(tuple),
    volumes=st.lists(
        st.integers(min_value=1, max_value=10**12), min_size=1, max_size=5, unique=True
    ).map(tuple),
    fixed_lifetime_for_volume_sweep_years=st.floats(min_value=1e-3, max_value=1e3, **finite),
)


class TestSweepProperties:
    @given(spec=sweep_specs, base=carbon_params)
    def test_every_cell_is_deploy_carbon_of_its_params(self, spec, base):
        cells = sweep(spec, base, design_id="d", platform="asic").cells
        expected = {
            Scenario("lifetime_years", float(years)): deploy_carbon(
                replace(base, lifetime_hours=years * HOURS_PER_YEAR)
            )
            for years in spec.lifetimes_years
        }
        fixed_hours = spec.fixed_lifetime_for_volume_sweep_years * HOURS_PER_YEAR
        expected.update(
            (Scenario("volume", float(volume)),
             deploy_carbon(replace(base, n_vol=volume, lifetime_hours=fixed_hours)))
            for volume in spec.volumes
        )
        assert cells == expected
        # "lifetime_years" < "volume": the lifetime cells ascending, then the volume cells
        assert list(cells) == sorted(expected)


class TestWeightValidationProperties:
    @given(weights=weight_vectors())
    def test_generated_vectors_always_validate(self, weights):
        assert validate_weights(weights) is weights
