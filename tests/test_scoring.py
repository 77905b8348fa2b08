from __future__ import annotations

import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refdata
from ecoplan.model import Dataset, IpProfile, ScoreWeights
from ecoplan.scoring import (
    ScoreCard,
    adaptability,
    composite,
    exposure,
    normalize_composites,
    performance_tolerance,
    piracy_threat,
    rank_cards,
    redaction_ratio,
    resource_fit,
    score_dataset,
    score_from_subscores,
)

W = ScoreWeights.default()

GUARDS = [
    # (call, exception type, exact message)
    pytest.param(lambda: piracy_threat(1.5, 0.0, 0.0, W), ValueError,
                 "confidentiality must lie in [0, 1], got 1.5", id="confidentiality-over-one"),
    pytest.param(lambda: piracy_threat(0.5, 0.0, -0.5, W), ValueError,
                 "redaction must lie in [0, 1], got -0.5", id="negative-redaction"),
    pytest.param(lambda: score_from_subscores([], W), ValueError,
                 "need at least one sub-score row", id="no-rows"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_exact_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


class TestAdaptability:
    def test_max_churn_scores_one(self):
        assert adaptability(200, 200) == 1.0

    def test_zero_churn_scores_zero(self):
        assert adaptability(0, 200) == 0.0

    def test_near_max_value(self):
        # ln(181)/ln(201), evaluated independently
        assert adaptability(180, 200) == pytest.approx(
            math.log(181) / math.log(201), abs=1e-15
        )
        assert adaptability(180, 200) == pytest.approx(0.9802372523152534, abs=1e-12)

    def test_no_churn_dataset_defined_as_zero(self):
        assert adaptability(0, 0) == 0.0

    def test_exceeding_max_is_an_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            adaptability(201, 200)


class TestExposure:
    def test_representative_ratio(self):
        assert exposure(25, 100) == 0.25

    def test_no_exposed_nets(self):
        assert exposure(0, 123) == 0.0

    def test_equal_counts(self):
        assert exposure(100, 100) == 1.0

    def test_can_exceed_one_unclamped(self):
        assert exposure(300, 100) == 3.0

    def test_zero_denominator_guarded(self):
        with pytest.raises(ValueError, match="internal_nets_and_state"):
            exposure(5, 0)


class TestRedactionRatio:
    def test_partial(self):
        assert redaction_ratio(0.8 * 2500, 2500) == pytest.approx(0.80, abs=1e-15)

    def test_none_mapped(self):
        assert redaction_ratio(0, 10) == 0.0

    def test_fully_redacted(self):
        assert redaction_ratio(10, 10) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            redaction_ratio(11, 10)
        with pytest.raises(ValueError):
            redaction_ratio(1, 0)


class TestPiracyThreat:
    def test_all_ones_gives_one(self):
        assert piracy_threat(1, 1, 1, W) == pytest.approx(1.0, abs=1e-15)

    def test_hand_evaluated_case(self):
        # 0.5*0.9 + 0.3*0.25 + 0.2*0.80 = 0.45 + 0.075 + 0.16
        assert piracy_threat(0.9, 0.25, 0.80, W) == pytest.approx(0.685, abs=1e-12)

    def test_all_zero(self):
        assert piracy_threat(0, 0, 0, W) == 0.0

    def test_exposure_clamped_at_combination_point(self):
        assert piracy_threat(0.0, 5.0, 0.0, W) == pytest.approx(W.nu, abs=1e-15)

    def test_invalid_weights_propagate(self):
        with pytest.raises(ValueError):
            bad = ScoreWeights(0.3, 0.3, 0.3, 0.3, 0.5, 0.3, 0.2)
            piracy_threat(0.5, 0.5, 0.5, bad)


class TestPerformanceTolerance:
    def test_ratio_below_one(self):
        assert performance_tolerance(2.53, 2.20) == pytest.approx(2.20 / 2.53, abs=1e-15)
        assert performance_tolerance(2.53, 2.20) == pytest.approx(0.8696, abs=5e-5)

    def test_equal_frequencies(self):
        assert performance_tolerance(1.7, 1.7) == 1.0

    def test_faster_than_hardened_clamps(self):
        assert performance_tolerance(2.0, 2.5) == 1.0

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            performance_tolerance(0.0, 1.0)
        with pytest.raises(ValueError):
            performance_tolerance(1.0, -2.0)


class TestResourceFit:
    def test_largest_scores_zero(self):
        assert resource_fit(9000, 1000, 9000) == 0.0

    def test_smallest_scores_one(self):
        assert resource_fit(1000, 1000, 9000) == 1.0

    def test_midpoint(self):
        assert resource_fit(5000, 1000, 9000) == 0.5

    def test_degenerate_equal_areas(self):
        assert resource_fit(42, 42, 42) == 1.0

    def test_out_of_range_area(self):
        with pytest.raises(ValueError, match="outside"):
            resource_fit(999, 1000, 9000)


class TestComposite:
    def test_reference_row_d1(self):
        assert composite(0.98, 1.00, 0.88, 0.47, W) == pytest.approx(0.8650, abs=1e-12)

    def test_identical_subscores_collapse(self):
        assert composite(0.37, 0.37, 0.37, 0.37, W) == pytest.approx(0.37, abs=1e-12)

    def test_hand_evaluated_rows(self):
        for design, row in refdata.SUBSCORE_ROWS.items():
            assert composite(*row, W) == pytest.approx(
                refdata.HAND_COMPOSITES[design], abs=1e-12
            ), design

    def test_out_of_range_subscore(self):
        with pytest.raises(ValueError):
            composite(1.2, 0.5, 0.5, 0.5, W)


class TestNormalization:
    def test_max_maps_to_one(self):
        out = normalize_composites([0.5, 0.25, 0.1])
        assert out[0] == 1.0
        assert out[1] == 0.5

    def test_ties_all_map_to_one(self):
        assert normalize_composites([0.4, 0.4]) == [1.0, 1.0]

    def test_all_zero_treated_as_tied_maxima(self):
        assert normalize_composites([0.0, 0.0]) == [1.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_composites([])


@pytest.mark.parametrize("call, message", [
    (lambda: adaptability(math.nan, 5), "loc counts must be finite and >= 0"),
    (lambda: adaptability(1, math.nan), "loc counts must be finite and >= 0"),
    (lambda: exposure(1, math.nan), "internal_nets_and_state must be finite and > 0"),
    (lambda: exposure(math.nan, 5), "io_control_nets must be finite and >= 0"),
    (lambda: piracy_threat(0.5, math.nan, 0.5, W), "exposure must be finite and >= 0, got nan"),
    (lambda: performance_tolerance(math.nan, 1.0), "frequencies must be finite and > 0"),
    (lambda: performance_tolerance(1.0, math.nan), "frequencies must be finite and > 0"),
    (lambda: normalize_composites([1.0, math.nan]), "composites must be finite and >= 0"),
], ids=["adaptability-loc", "adaptability-max", "exposure-internal", "exposure-io",
        "piracy-exposure", "performance-asic", "performance-efpga", "normalize"])
def test_nan_argument_raises_instead_of_scoring(call, message):
    # each public function is the only statement of its rule, so a NaN must fail its guard
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: performance_tolerance(math.inf, 1.0), "frequencies must be finite and > 0"),
    (lambda: performance_tolerance(math.inf, math.inf), "frequencies must be finite and > 0"),
    (lambda: performance_tolerance(1.0, math.inf), "frequencies must be finite and > 0"),
    (lambda: adaptability(math.inf, math.inf), "loc counts must be finite and >= 0"),
    (lambda: exposure(math.inf, math.inf), "internal_nets_and_state must be finite and > 0"),
    (lambda: exposure(math.inf, 5), "io_control_nets must be finite and >= 0"),
    (lambda: redaction_ratio(math.inf, math.inf), "total logic must be finite and > 0"),
    (lambda: piracy_threat(0.5, math.inf, 0.5, W), "exposure must be finite and >= 0, got inf"),
    (lambda: resource_fit(1.0, -math.inf, math.inf),
     "area range [-inf, inf] must be ordered with a finite span"),
    (lambda: resource_fit(math.inf, math.inf, math.inf),
     "area range [inf, inf] must be ordered with a finite span"),
    (lambda: normalize_composites([math.inf, 1.0]), "composites must be finite and >= 0"),
], ids=["performance-asic", "performance-both", "performance-efpga", "adaptability",
        "exposure-both", "exposure-io", "redaction", "piracy-exposure", "fit-unbounded",
        "fit-all-infinite", "normalize"])
def test_infinite_argument_raises_instead_of_scoring(call, message):
    # an infinite argument used to score 0.0, 1.0 or NaN past the guard
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


HUGE = 10**400  # an int beyond the float range: float() of it overflows


@pytest.mark.parametrize("call, message", [
    (lambda: adaptability(HUGE, HUGE), "loc counts must be finite and >= 0"),
    (lambda: adaptability(1, HUGE), "loc counts must be finite and >= 0"),
    (lambda: redaction_ratio(1, HUGE), "total logic must be finite and > 0"),
    (lambda: redaction_ratio(HUGE, 1), "mapped logic must be finite and lie in [0, total], "
     f"got {HUGE} of 1"),
    (lambda: performance_tolerance(HUGE, 1.0), "frequencies must be finite and > 0"),
    (lambda: performance_tolerance(1.0, HUGE), "frequencies must be finite and > 0"),
    (lambda: exposure(HUGE, 1), "io_control_nets must be finite and >= 0"),
    (lambda: exposure(1, HUGE), "internal_nets_and_state must be finite and > 0"),
], ids=["adaptability-both", "adaptability-max", "redaction-total", "redaction-mapped",
        "performance-asic", "performance-efpga", "exposure-io", "exposure-internal"])
def test_int_too_large_for_a_float_raises_value_error(call, message):
    # each used to raise OverflowError from float() or math.log1p past the guard
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestScoreDataset:
    def test_fixture_subscore_columns(self, six_ip_dataset):
        """The bundled dataset realizes the case-study sub-score columns."""
        cards = {c.ip_id: c for c in score_dataset(six_ip_dataset, W, normalize_piracy=True)}
        expected = {
            "d1": (0.98, 1.00, 0.88, 0.47),
            "d2": (0.82, 0.98, 0.86, 0.55),
            "d3": (1.00, 0.82, 0.75, 0.00),
            "d4": (0.94, 0.79, 0.79, 0.13),
            "d5": (0.21, 0.25, 0.97, 1.00),  # 0.21 is the closest integer-churn value
            "d6": (0.26, 0.31, 1.00, 0.84),
        }
        for ip_id, (a, o, p, r) in expected.items():
            card = cards[ip_id]
            assert round(card.adaptability, 2) == a, ip_id
            assert round(card.piracy_threat, 2) == o, ip_id
            assert round(card.performance_tolerance, 2) == p, ip_id
            assert round(card.resource_fit, 2) == r, ip_id

    def test_exposure_and_redaction_reported_raw(self, six_ip_dataset):
        cards = {c.ip_id: c for c in score_dataset(six_ip_dataset, W)}
        assert cards["d1"].exposure == 0.25
        assert cards["d1"].redaction_ratio == pytest.approx(0.80, abs=1e-15)

    def test_ranking_is_deterministic_and_best_first(self, six_ip_dataset):
        cards = score_dataset(six_ip_dataset, W)
        assert [c.ip_id for c in cards] == ["d1", "d2", "d4", "d3", "d6", "d5"]
        assert cards[0].normalized == 1.0
        comps = [c.composite for c in cards]
        assert comps == sorted(comps, reverse=True)

    def test_single_ip_normalizes_to_one(self, six_ip_dataset):
        solo = replace(six_ip_dataset, ips=six_ip_dataset.ips[:1])
        cards = score_dataset(solo, W)
        assert len(cards) == 1
        assert cards[0].normalized == 1.0

    def test_identical_ips_tie_broken_by_id(self, six_ip_dataset):
        twin = replace(six_ip_dataset.ips[0], id="zz")
        both = replace(six_ip_dataset, ips=(six_ip_dataset.ips[0], twin))
        cards = score_dataset(both, W)
        assert [c.ip_id for c in cards] == ["d1", "zz"]
        assert cards[0].composite == cards[1].composite
        assert cards[0].normalized == cards[1].normalized == 1.0

    def test_pure_function(self, six_ip_dataset):
        assert score_dataset(six_ip_dataset, W) == score_dataset(six_ip_dataset, W)


class TestScoreFromSubscores:
    def test_reference_rows_rank_and_normalize(self):
        rows = [(d, *row) for d, row in refdata.SUBSCORE_ROWS.items()]
        cards = score_from_subscores(rows, W)
        by_id = {c.ip_id: c for c in cards}
        for design, expected in refdata.HAND_COMPOSITES.items():
            assert by_id[design].composite == pytest.approx(expected, abs=1e-12)
        assert [c.ip_id for c in cards] == ["d1", "d2", "d4", "d3", "d6", "d5"]
        assert cards[0].normalized == 1.0
        assert by_id["d1"].exposure is None

    def test_all_ones_row(self):
        (card,) = score_from_subscores([("x", 1.0, 1.0, 1.0, 1.0)], W)
        assert card.composite == pytest.approx(1.0, abs=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            score_from_subscores([("x", 1.5, 0, 0, 0)], W)

    @pytest.mark.parametrize("rows, message", [
        # the first row with a bad sub-score, then its first bad sub-score, is named
        ([("x", 0.5, 0.5, 0.5, 1.5), ("y", -1.0, 0.5, 0.5, 0.5)],
         "resource sub-score must lie in [0, 1], got 1.5"),
        ([("x", 0.5, 0.5, 0.5, 0.5), ("y", 0.5, math.nan, 2.0, 0.5)],
         "piracy sub-score must lie in [0, 1], got nan"),
        ([("x", 0.5, 0.5, 0.5, 0.5), ("y", 0.5, 0.5, -math.inf, 0.5)],
         "performance sub-score must lie in [0, 1], got -inf"),
    ])
    def test_first_bad_subscore_in_row_order_is_named(self, rows, message):
        with pytest.raises(ValueError) as info:
            score_from_subscores(rows, W)
        assert str(info.value) == message


# --- score_dataset against the per-IP public functions ---------------------------


def reference_cards(dataset, weights, normalize_piracy):
    """Ranked cards built one IP at a time from the public sub-score functions."""
    ips = dataset.ips
    max_loc = max(ip.loc_changed for ip in ips)
    a_min, a_max = min(ip.area for ip in ips), max(ip.area for ip in ips)
    expo = [exposure(ip.io_control_nets, ip.internal_nets_and_state) for ip in ips]
    redact = [redaction_ratio(ip.logic_mapped_to_efpga, ip.total_logic) for ip in ips]
    piracy = [piracy_threat(ip.confidentiality_risk, e, r, weights)
              for ip, e, r in zip(ips, expo, redact)]
    if normalize_piracy and max(piracy) > 0:
        piracy = [value / max(piracy) for value in piracy]
    subs = [
        (adaptability(ip.loc_changed, max_loc), o,
         performance_tolerance(ip.f_max_asic, ip.f_max_efpga), resource_fit(ip.area, a_min, a_max))
        for ip, o in zip(ips, piracy)
    ]
    composites = [composite(*row, weights) for row in subs]
    cards = [
        ScoreCard(ip.id, *row, c, n, e, r)
        for ip, row, c, n, e, r in zip(
            ips, subs, composites, normalize_composites(composites), expo, redact)
    ]
    return rank_cards(cards, {ip.id: ip.area for ip in ips})


def card_reprs(cards):
    return [[repr(getattr(card, f.name)) for f in fields(ScoreCard)] for card in cards]


WEIGHT_CHOICES = (
    W,
    ScoreWeights(0.25, 0.25, 0.25, 0.25, 1 / 3, 1 / 3, 1 / 3),
    ScoreWeights(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    ScoreWeights(0.1, 0.6, 0.1, 0.2, 0.7, 0.2, 0.1),
)


@st.composite
def scored_datasets(draw):
    """1-8 IPs whose fields come from small pools, so that areas, churn and
    composites tie often; sometimes every area is equal or no IP churned."""
    n = draw(st.integers(1, 8))
    same_area, no_churn = draw(st.booleans()), draw(st.booleans())
    area = st.sampled_from([1.0, 2.0, 2.5, 1e6]) | st.floats(1e-3, 1e9)
    shared_area = draw(area)
    ips = []
    for i in range(n):
        total = draw(st.sampled_from([1, 10, 3.5]) | st.floats(1e-3, 1e9))
        f_asic = draw(st.sampled_from([1.0, 2.0]) | st.floats(1e-3, 1e3))
        internal = draw(st.integers(1, 100))
        ips.append(IpProfile(
            id=f"ip{n - i}",  # dataset order differs from id order
            name="block",
            loc_changed=0 if no_churn else draw(st.sampled_from([0, 1, 7]) | st.integers(0, 10**6)),
            confidentiality_risk=draw(st.sampled_from([0, 0.5, 1]) | st.floats(0, 1)),
            io_control_nets=draw(st.sampled_from([0, internal, 2 * internal]) | st.integers(0, 100)),
            internal_nets_and_state=internal,
            logic_mapped_to_efpga=draw(
                st.sampled_from([0, total]) | st.floats(0, 1).map(lambda share: share * total)),
            total_logic=total,
            f_max_asic=f_asic,
            f_max_efpga=draw(st.sampled_from([f_asic, f_asic / 2, 2 * f_asic]) | st.floats(1e-3, 1e3)),
            area=shared_area if same_area else draw(area),
        ))
    return Dataset(ips=tuple(ips), area_unit="um2")


class TestScoreDatasetMatchesPerIpFunctions:
    """Column-wise scoring gives the cards the public per-IP functions give:
    the same order and every float the same double."""

    @given(dataset=scored_datasets(), weights=st.sampled_from(WEIGHT_CHOICES),
           normalize_piracy=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_small_datasets(self, dataset, weights, normalize_piracy):
        expected = reference_cards(dataset, weights, normalize_piracy)
        actual = score_dataset(dataset, weights, normalize_piracy=normalize_piracy)
        assert card_reprs(actual) == card_reprs(expected)

    @pytest.mark.parametrize("normalize_piracy", [False, True])
    def test_seeded_3000_ips(self, normalize_piracy):
        rng = random.Random(3000)
        ips = []
        for i in range(3000):
            total = rng.randint(500, 20_000)
            f_asic = round(rng.uniform(0.5, 3.0), 4)
            ips.append(IpProfile(
                id=f"ip{i:05d}", name=f"block-{i}", loc_changed=rng.randint(0, 5_000),
                confidentiality_risk=round(rng.random(), 4),
                io_control_nets=rng.randint(0, 2_000), internal_nets_and_state=rng.randint(1, 4_000),
                logic_mapped_to_efpga=rng.randint(0, total), total_logic=total,
                f_max_asic=f_asic, f_max_efpga=round(f_asic * rng.uniform(0.3, 1.1), 4),
                area=float(rng.randint(5_000, 200_000)),
            ))
        dataset = Dataset(ips=tuple(ips), area_unit="gate_eq")
        expected = reference_cards(dataset, W, normalize_piracy)
        actual = score_dataset(dataset, W, normalize_piracy=normalize_piracy)
        assert card_reprs(actual) == card_reprs(expected)

    def test_piracy_past_one_through_the_weight_sum_tolerance_is_capped(self, six_ip_dataset):
        weights = replace(W, mu=0.5 + 5e-10)  # mu + nu + xi = 1 + 5e-10, within the tolerance
        ip = replace(six_ip_dataset.ips[0], confidentiality_risk=1.0, io_control_nets=50,
                     internal_nets_and_state=50, logic_mapped_to_efpga=10.0, total_logic=10.0)
        dataset = replace(six_ip_dataset, ips=(*six_ip_dataset.ips[1:], ip))
        actual = score_dataset(dataset, weights)
        assert card_reprs(actual) == card_reprs(reference_cards(dataset, weights, False))
        assert max(card.piracy_threat for card in actual) == 1.0
