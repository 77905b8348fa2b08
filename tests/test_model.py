from __future__ import annotations

import json
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoplan import model
from ecoplan.cli import main
from ecoplan.fixtures import fixture_path
from ecoplan.model import (
    Dataset,
    IpProfile,
    ParseError,
    SchemaVersionError,
    ScoreWeights,
    ValidationError,
    dataset_to_dict,
    load_dataset,
    save_dataset,
    validate_weights,
)
from ecoplan.scoring import score_dataset


def ip_entry_dict(**overrides) -> dict:
    base = dict(
        id="ip0",
        name="block",
        loc_changed=10,
        confidentiality_risk=0.5,
        io_control_nets=5,
        internal_nets_and_state=50,
        logic_mapped_to_efpga=40.0,
        total_logic=100.0,
        f_max_asic=2.0,
        f_max_efpga=1.5,
        area=1000.0,
    )
    base.update(overrides)
    return base


def make_ip(**overrides) -> IpProfile:
    return IpProfile(**ip_entry_dict(**overrides))


def write_dataset(path, entries):
    path.write_text(json.dumps({"schema_version": "1", "area_unit": "um2", "ips": entries}),
                    encoding="utf-8")
    return path


def load_counting_post_init(path):
    """load_dataset(path) and how many times it ran IpProfile.__post_init__."""
    with mock.patch.object(IpProfile, "__post_init__", autospec=True,
                           side_effect=IpProfile.__post_init__) as post_init:
        dataset = load_dataset(path)
    return dataset, post_init.call_count


class TestIpProfile:
    def test_valid_profile_constructs(self):
        ip = make_ip()
        assert ip.churn_window == 3
        assert ip.power_mw is None

    def test_mapped_logic_cannot_exceed_total(self):
        with pytest.raises(ValidationError, match="ip0.*logic_mapped_to_efpga"):
            make_ip(logic_mapped_to_efpga=101.0)

    def test_confidentiality_bounds(self):
        with pytest.raises(ValidationError, match="confidentiality_risk"):
            make_ip(confidentiality_risk=1.5)
        with pytest.raises(ValidationError, match="confidentiality_risk"):
            make_ip(confidentiality_risk=-0.1)

    @pytest.mark.parametrize("fname", ["f_max_asic", "f_max_efpga", "area", "total_logic"])
    def test_positive_fields_rejected_at_zero(self, fname):
        with pytest.raises(ValidationError, match=fname):
            make_ip(**{fname: 0})

    def test_counts_must_be_integers(self):
        with pytest.raises(ValidationError, match="loc_changed"):
            make_ip(loc_changed=3.5)
        with pytest.raises(ValidationError, match="io_control_nets"):
            make_ip(io_control_nets=-1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="area"):
            make_ip(area=float("inf"))
        with pytest.raises(ValidationError, match="confidentiality_risk"):
            make_ip(confidentiality_risk=float("nan"))

    def test_platform_map_keys_checked(self):
        with pytest.raises(ValidationError, match="power_mw"):
            make_ip(power_mw={"gpu": 10.0})


# Each number rule of an IP, worded as the per-IP checks word it. Written out
# here rather than read from the model's table, so that a wrong table row fails.
AT_LEAST = "IP 'ip0' field %r must be >= %s"
ABOVE = "IP 'ip0' field %r must be > 0"
RISK = "IP 'ip0' field 'confidentiality_risk' must lie in [0, 1]"
NUMBER_RULES = [
    # (field, values accepted at or inside the bound, values rejected, message)
    ("loc_changed", [0, 1], [-1], AT_LEAST % ("loc_changed", 0)),
    ("churn_window", [1], [0, -1], AT_LEAST % ("churn_window", 1)),
    ("confidentiality_risk", [0, 0.0, 1, 1.0], [-0.1, 1.0000000000000002, 2], RISK),
    ("io_control_nets", [0], [-1], AT_LEAST % ("io_control_nets", 0)),
    ("internal_nets_and_state", [1], [0, -1], AT_LEAST % ("internal_nets_and_state", 1)),
    ("total_logic", [40.0, 100], [0, 0.0, -1.0], ABOVE % "total_logic"),
    ("logic_mapped_to_efpga", [0, 0.0, 100, 100.0], [-1, -1e-300],
     AT_LEAST % ("logic_mapped_to_efpga", 0)),
    ("f_max_asic", [5e-324, 1], [0, -1.5], ABOVE % "f_max_asic"),
    ("f_max_efpga", [5e-324, 1], [0, -1.5], ABOVE % "f_max_efpga"),
    ("area", [5e-324, 1], [0, -0.0, -1], ABOVE % "area"),
    ("f_max_fpga", [None, 5e-324, 1], [0, -1], ABOVE % "f_max_fpga"),
]
ACCEPTED = [(f, v) for f, good, _, _ in NUMBER_RULES for v in good]
REJECTED = [
    pytest.param({f: v}, msg, id=f"{f}={v!r}") for f, _, bad, msg in NUMBER_RULES for v in bad
] + [
    pytest.param({"logic_mapped_to_efpga": 100.00000000000001},
                 "IP 'ip0' field 'logic_mapped_to_efpga' must not exceed total_logic",
                 id="mapped-over-total"),
    pytest.param({"loc_changed": 3.5}, "IP 'ip0' field 'loc_changed' must be an integer, got 3.5",
                 id="float-count"),
    pytest.param({"churn_window": True}, "IP 'ip0' field 'churn_window' must be an integer, got True",
                 id="bool-count"),
    pytest.param({"area": "1"}, "IP 'ip0' field 'area' must be a real number, got '1'",
                 id="string-real"),
    pytest.param({"f_max_asic": float("nan")}, "IP 'ip0' field 'f_max_asic' must be finite, got nan",
                 id="nan"),
    pytest.param({"internal_nets_and_state": 10**400},
                 "IP 'ip0' field 'internal_nets_and_state' must be finite, "
                 "got an integer too large for a float", id="too-large"),
    pytest.param({"churn_window": None}, "IP 'ip0' field 'churn_window' must be an integer, got None",
                 id="null-churn"),
    pytest.param({"id": ""}, "IP id must be a non-empty string, got ''", id="empty-id"),
    pytest.param({"id": 5}, "IP id must be a non-empty string, got 5", id="int-id"),
    pytest.param({"name": ""}, "IP 'ip0' field 'name' must be a non-empty string, got ''",
                 id="empty-name"),
    pytest.param({"name": ["x"]}, "IP 'ip0' field 'name' must be a non-empty string, got ['x']",
                 id="list-name"),
    # JSON can spell a lone surrogate, which no report file can hold
    pytest.param({"id": "a\ud800"}, "IP id must encode as UTF-8, got 'a\\ud800'",
                 id="surrogate-id"),
    pytest.param({"name": "\udfffb"}, "IP 'ip0' field 'name' must encode as UTF-8, got '\\udfffb'",
                 id="surrogate-name"),
    # and a NUL, which Python 3.10's csv cannot write
    pytest.param({"id": "a\x00b"}, "IP id must not contain NUL, got 'a\\x00b'", id="nul-id"),
    pytest.param({"name": "a\x00"}, "IP 'ip0' field 'name' must not contain NUL, got 'a\\x00'",
                 id="nul-name"),
    pytest.param({"power_mw": 5}, "IP 'ip0' field 'power_mw' must be a platform -> value map",
                 id="map-not-dict"),
    pytest.param({"slack_ns": {"gpu": 1.0}},
                 "IP 'ip0' field 'slack_ns' unknown platform 'gpu' "
                 "(expected one of ('asic', 'fpga', 'ecologic'))", id="unknown-platform"),
    pytest.param({"area_mm2": {"asic": 0, "fpga": -1}},
                 "IP 'ip0' field 'area_mm2[fpga]' must be >= 0", id="negative-map-value"),
    pytest.param({"power_mw": {"ecologic": "1"}},
                 "IP 'ip0' field 'power_mw[ecologic]' must be a real number, got '1'",
                 id="string-map-value"),
    # two faults: the earlier check in the order of the rules words the error
    pytest.param({"id": "", "name": ""}, "IP id must be a non-empty string, got ''",
                 id="id-before-name"),
    pytest.param({"name": "", "loc_changed": -1},
                 "IP 'ip0' field 'name' must be a non-empty string, got ''",
                 id="name-before-numbers"),
    pytest.param({"loc_changed": -1, "churn_window": 0}, AT_LEAST % ("loc_changed", 0),
                 id="loc-before-churn"),
    pytest.param({"churn_window": 0, "confidentiality_risk": 2}, AT_LEAST % ("churn_window", 1),
                 id="churn-before-risk"),
    pytest.param({"confidentiality_risk": 2, "io_control_nets": -1}, RISK,
                 id="risk-before-io"),
    pytest.param({"io_control_nets": -1, "internal_nets_and_state": 0},
                 AT_LEAST % ("io_control_nets", 0), id="io-before-internal"),
    pytest.param({"internal_nets_and_state": 0, "total_logic": 0},
                 AT_LEAST % ("internal_nets_and_state", 1), id="internal-before-total"),
    pytest.param({"total_logic": 0, "logic_mapped_to_efpga": -1}, ABOVE % "total_logic",
                 id="total-before-mapped"),
    pytest.param({"logic_mapped_to_efpga": 200.0, "f_max_asic": 0},
                 "IP 'ip0' field 'logic_mapped_to_efpga' must not exceed total_logic",
                 id="mapped-over-total-before-f_max_asic"),
    pytest.param({"f_max_asic": 0, "f_max_efpga": 0}, ABOVE % "f_max_asic",
                 id="f_max_asic-before-f_max_efpga"),
    pytest.param({"f_max_efpga": 0, "area": 0}, ABOVE % "f_max_efpga",
                 id="f_max_efpga-before-area"),
    pytest.param({"area": 0, "f_max_fpga": 0}, ABOVE % "area", id="area-before-f_max_fpga"),
    pytest.param({"f_max_fpga": 0, "power_mw": {"gpu": 1.0}}, ABOVE % "f_max_fpga",
                 id="f_max_fpga-before-maps"),
    pytest.param({"power_mw": {"gpu": 1.0}, "slack_ns": 5},
                 "IP 'ip0' field 'power_mw' unknown platform 'gpu' "
                 "(expected one of ('asic', 'fpga', 'ecologic'))", id="power-before-slack"),
]


@pytest.fixture(params=["profile", "load_dataset"])
def build_ip(request, tmp_path):
    """Build one IP directly, or through a dataset file (column check first)."""
    if request.param == "profile":
        return lambda entry: IpProfile(**entry)

    def through_file(entry):
        return load_dataset(write_dataset(tmp_path / "one.json", [entry])).ips[0]

    return through_file


class TestIpMessages:
    """The exact outcome of every IP rule, at its bound and past it."""

    @pytest.mark.parametrize("field, value", ACCEPTED, ids=[f"{f}={v!r}" for f, v in ACCEPTED])
    def test_accepted_at_bound(self, build_ip, field, value):
        ip = build_ip(ip_entry_dict(**{field: value}))
        assert getattr(ip, field) == value

    @pytest.mark.parametrize("overrides, message", REJECTED)
    def test_rejected_with_message(self, build_ip, overrides, message):
        with pytest.raises(ValidationError) as info:
            build_ip(ip_entry_dict(**overrides))
        assert str(info.value) == message

    def test_mapped_is_compared_with_total_as_floats(self, build_ip, tmp_path):
        # 2**53 + 3 rounds to 2.0**53 + 4, so the two are equal as floats
        entry = ip_entry_dict(total_logic=2**53 + 3, logic_mapped_to_efpga=2.0**53 + 4)
        assert build_ip(entry).logic_mapped_to_efpga == 2.0**53 + 4
        # the column check passes it too: the file loads without a per-IP walk
        assert load_counting_post_init(write_dataset(tmp_path / "f.json", [entry]))[1] == 0

    @pytest.mark.parametrize("command", ["score", "partition"])
    def test_mapped_equal_to_total_as_floats_scores(self, tmp_path, demo_config, command):
        # loading compares the two as floats, so scoring must too
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        raw["ips"][0].update(total_logic=2**53 + 3, logic_mapped_to_efpga=2.0**53 + 4)
        dataset = tmp_path / "d.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**demo_config, "dataset": str(dataset)}), encoding="utf-8")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0


class TestWeights:
    def test_default_weights_validate(self):
        w = validate_weights(ScoreWeights.default())
        assert w.alpha + w.beta + w.gamma + w.delta == pytest.approx(1.0)

    def test_degenerate_corner_accepted(self):
        validate_weights(ScoreWeights(1, 0, 0, 0, 1, 0, 0))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError, match="alpha\\+beta\\+gamma\\+delta"):
            validate_weights(ScoreWeights(0.3, 0.3, 0.3, 0.3, 0.5, 0.3, 0.2))

    def test_out_of_range_component_rejected(self):
        with pytest.raises(ValidationError, match="beta"):
            validate_weights(ScoreWeights(0.5, -0.1, 0.3, 0.3, 0.5, 0.3, 0.2))

    def test_weights_check_themselves_when_built(self):
        with pytest.raises(ValidationError, match="alpha\\+beta\\+gamma\\+delta"):
            ScoreWeights(0.3, 0.3, 0.3, 0.3, 0.5, 0.3, 0.2)
        with pytest.raises(ValidationError, match="weight 'beta' must lie in"):
            replace(ScoreWeights.default(), beta=-0.1)

    def test_weights_from_dict_strict(self):
        with pytest.raises(ValidationError, match="weights: unknown key"):
            model._from_dict(ScoreWeights, {"alpha": 0.25, "beta": 0.35, "gamma": 0.2,
                                            "delta": 0.2, "mu": 0.5, "nu": 0.3, "xi": 0.2,
                                            "omega": 0.1}, "weights")
        with pytest.raises(ValidationError, match="weights: missing key"):
            model._from_dict(ScoreWeights, {"alpha": 1.0}, "weights")


class TestDatasetLoading:
    def test_fixture_loads_six_ips(self, six_ip_dataset):
        assert len(six_ip_dataset.ips) == 6
        assert six_ip_dataset.ip_ids == ("d1", "d2", "d3", "d4", "d5", "d6")
        assert six_ip_dataset.area_unit == "gate_eq"
        d1 = six_ip_dataset.ip("d1")
        assert d1.loc_changed == 180
        assert d1.io_control_nets == 25
        assert d1.power_mw["fpga"] == 20000

    def test_round_trip(self, six_ip_dataset, tmp_path):
        path = tmp_path / "copy.json"
        save_dataset(six_ip_dataset, path)
        again = load_dataset(path)
        assert again == six_ip_dataset

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "nope.json")

    def test_unknown_schema_version(self, six_ip_dataset, tmp_path):
        raw = dataset_to_dict(six_ip_dataset)
        raw["schema_version"] = "99"
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(SchemaVersionError):
            load_dataset(path)

    def test_empty_ip_list_rejected(self, six_ip_dataset, tmp_path):
        raw = dataset_to_dict(six_ip_dataset)
        raw["ips"] = []
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValidationError, match="non-empty"):
            load_dataset(path)

    def test_invariant_violation_names_ip_and_field(self, six_ip_dataset, tmp_path):
        raw = dataset_to_dict(six_ip_dataset)
        raw["ips"][2]["logic_mapped_to_efpga"] = raw["ips"][2]["total_logic"] + 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValidationError, match="'d3'.*logic_mapped_to_efpga"):
            load_dataset(path)

    def test_unknown_ip_field_rejected(self, six_ip_dataset, tmp_path):
        raw = dataset_to_dict(six_ip_dataset)
        raw["ips"][0]["frequnecy"] = 1.0  # typo should not pass silently
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValidationError, match="'d1'.*frequnecy"):
            load_dataset(path)

    def test_unknown_top_level_key_rejected(self, six_ip_dataset, tmp_path):
        raw = dataset_to_dict(six_ip_dataset)
        raw["comment"] = "hello"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValidationError, match="comment"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, six_ip_dataset):
        dup = six_ip_dataset.ips + (six_ip_dataset.ips[0],)
        with pytest.raises(ValidationError, match="duplicate"):
            Dataset(ips=dup, area_unit="gate_eq")

    def test_any_sequence_of_ips_becomes_a_tuple(self, six_ip_dataset):
        dataset = Dataset(ips=list(six_ip_dataset.ips), area_unit="gate_eq")
        assert dataset.ips == six_ip_dataset.ips and isinstance(dataset.ips, tuple)


GUARDS = [
    # (call, exception type, exact message)
    pytest.param(lambda: Dataset(ips=(make_ip(),), area_unit="um2", schema_version="2"),
                 SchemaVersionError, "unknown schema_version '2' (supported: '1')",
                 id="dataset-schema-version"),
    pytest.param(lambda: Dataset(ips=[], area_unit="um2"), ValidationError,
                 "dataset must contain at least one IP", id="dataset-empty-list"),
    pytest.param(lambda: fixture_path("nope.json"), FileNotFoundError,
                 "no bundled fixture named 'nope.json'", id="fixture-unknown"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_exact_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# --- column-wise dataset check vs the per-IP path -----------------------------

COUNTS = ("loc_changed", "io_control_nets", "internal_nets_and_state", "churn_window")
REALS = ("confidentiality_risk", "logic_mapped_to_efpga", "total_logic", "f_max_asic",
         "f_max_efpga", "area", "f_max_fpga")
MAPS = ("power_mw", "slack_ns", "area_mm2")
PLATFORMS = ("asic", "fpga", "ecologic")
positive = st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e9))


@st.composite
def ip_entry(draw, index):
    total = draw(positive)
    share = draw(st.sampled_from([0, 1, 0.25]) | st.floats(0, 1))
    entry = {
        "id": f"ip{index}",
        "name": draw(st.text(min_size=1, max_size=6)),
        "loc_changed": draw(st.integers(0, 10**6)),
        "confidentiality_risk": draw(st.sampled_from([0, 1]) | st.floats(0, 1)),
        "io_control_nets": draw(st.integers(0, 10**4)),
        "internal_nets_and_state": draw(st.integers(1, 10**4)),
        "logic_mapped_to_efpga": total if share == 1 else share * total,
        "total_logic": total,
        "f_max_asic": draw(positive),
        "f_max_efpga": draw(positive),
        "area": draw(positive),
    }
    if draw(st.booleans()):
        entry["churn_window"] = draw(st.integers(1, 12))
    if draw(st.booleans()):
        entry["f_max_fpga"] = draw(st.none() | positive)
    for name in MAPS:
        if draw(st.booleans()):
            entry[name] = draw(st.none() | st.dictionaries(
                st.sampled_from(PLATFORMS), st.integers(0, 10**5) | st.floats(0, 1e6)))
    return entry


MUTATIONS = (
    "none", "bool", "float-for-count", "non-finite", "zero-or-negative", "risk-over-one",
    "mapped-over-total", "missing-key", "extra-key", "bad-id-or-name", "entry-not-dict",
    "map-not-dict", "unknown-platform", "too-large", "duplicate-id", "null-optional",
    "at-bound",
)
# (field, value) exactly at an IP rule's bound; "total" stands for the IP's total_logic
AT_BOUND = (
    ("confidentiality_risk", 1), ("confidentiality_risk", 1.0), ("confidentiality_risk", 0),
    ("churn_window", 1), ("internal_nets_and_state", 1), ("loc_changed", 0),
    ("io_control_nets", 0), ("logic_mapped_to_efpga", 0), ("logic_mapped_to_efpga", 0.0),
    ("logic_mapped_to_efpga", "total"), ("total_logic", 0), ("f_max_asic", 0.0),
    ("f_max_efpga", 0), ("area", 0), ("f_max_fpga", 0.0), ("power_mw", {"asic": 0}),
    ("area_mm2", {"fpga": 0.0}),
)


def mutate(draw, entries, kind):
    """Break one IP in the way ``kind`` names; the per-IP checks reject most
    of these and accept a few ("none", "null-optional" on f_max_fpga)."""
    i = draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    number_fields = COUNTS + REALS
    if kind == "bool":
        entry[draw(st.sampled_from(number_fields))] = draw(st.booleans())
    elif kind == "float-for-count":
        entry[draw(st.sampled_from(COUNTS))] = draw(st.sampled_from([1.0, 2.5, 0.0]))
    elif kind in ("non-finite", "zero-or-negative", "too-large"):
        value = draw(st.sampled_from({
            "non-finite": [float("nan"), float("inf"), -float("inf")],
            "zero-or-negative": [0, 0.0, -0.0, -1, -0.5],
            "too-large": [10**400, -(10**400)],
        }[kind]))
        target = draw(st.sampled_from(number_fields + MAPS))
        if target in MAPS:
            entry[target] = {draw(st.sampled_from(PLATFORMS)): value}
        else:
            entry[target] = value
    elif kind == "risk-over-one":
        entry["confidentiality_risk"] = draw(st.sampled_from([2, 1.0000000000000002]))
    elif kind == "mapped-over-total":
        entry["logic_mapped_to_efpga"] = entry["total_logic"] * 2
    elif kind == "missing-key":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif kind == "extra-key":
        entry["bogus"] = 1
    elif kind == "bad-id-or-name":
        entry[draw(st.sampled_from(["id", "name"]))] = draw(
            st.sampled_from(["", 5, None, ["x"], "a\ud800", "a\x00b"]))
    elif kind == "entry-not-dict":
        entries[i] = draw(st.sampled_from([None, 5, "ip", [1, 2]]))
    elif kind == "map-not-dict":
        entry[draw(st.sampled_from(MAPS))] = draw(st.sampled_from([5, "asic", [1.0]]))
    elif kind == "unknown-platform":
        entry[draw(st.sampled_from(MAPS))] = {"gpu": 1.0}
    elif kind == "duplicate-id":
        entry["id"] = entries[0]["id"] if isinstance(entries[0], dict) else "ip0"
    elif kind == "null-optional":
        entry[draw(st.sampled_from(["churn_window", "f_max_fpga"]))] = None
    elif kind == "at-bound":
        field, value = draw(st.sampled_from(AT_BOUND))
        entry[field] = entry["total_logic"] if value == "total" else value


def outcome(load, path):
    try:
        return load(path)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return exc


def load_per_ip(path):
    """The reference loader: each IP on its own, in file order, its keys checked
    and then ``IpProfile(**entry)``; the drawn files differ only in their IPs."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    allowed, required = model._fields_of(IpProfile)
    ips = []
    for index, entry in enumerate(raw["ips"]):
        label = entry.get("id", f"#{index}") if isinstance(entry, dict) else f"#{index}"
        ips.append(IpProfile(**model._check_keys(entry, allowed, f"IP {label!r}", required)))
    return Dataset(ips=ips, area_unit=raw["area_unit"], schema_version=raw["schema_version"])


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    return tmp_path_factory.mktemp("column_check") / "dataset.json"


class TestColumnCheck:
    @pytest.mark.parametrize("kind", MUTATIONS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_ip_path(self, dataset_file, kind, data):
        n = data.draw(st.integers(1, 6))
        entries = [data.draw(ip_entry(i)) for i in range(n)]
        mutate(data.draw, entries, kind)
        write_dataset(dataset_file, entries)
        expected = outcome(load_per_ip, dataset_file)
        actual = outcome(load_dataset, dataset_file)
        if isinstance(expected, Exception):
            assert (type(actual), str(actual)) == (type(expected), str(expected)), kind
            return
        assert actual == expected, kind
        # repr tells 1 from 1.0 in every field and map value
        assert repr(actual) == repr(expected), kind
        # valid input is built from the checked columns, with no per-IP walk
        assert load_counting_post_init(dataset_file)[1] == 0, kind

    def test_fixture_takes_the_column_path(self, six_ip_dataset):
        dataset, post_init_calls = load_counting_post_init(fixture_path("six_ip_soc.json"))
        assert post_init_calls == 0 and dataset == six_ip_dataset

    def test_profiles_from_the_column_path_stay_frozen_and_checked(self, six_ip_dataset):
        ip = six_ip_dataset.ips[0]  # loaded from the checked columns
        with pytest.raises(FrozenInstanceError):
            ip.area = 1.0
        with pytest.raises(ValidationError, match="'d1' field 'area' must be > 0"):
            replace(ip, area=-1.0)
        assert replace(ip, name="renamed").name == "renamed"

    def test_bulk_built_instances_are_as_small_as_built_by_init(self):
        @dataclass(frozen=True, slots=True)
        class Row:
            a: int
            b: float
            c: str
            d: int
            e: float
            f: str

        columns = [list(range(2000)), [0.5] * 2000, ["x"] * 2000] * 2
        model._build(Row, [column[:1] for column in columns])  # caches Row's field names

        def allocated(build):
            tracemalloc.start()
            try:
                instances = build()
                return tracemalloc.get_traced_memory()[0], instances
            finally:
                tracemalloc.stop()

        built_size, built = allocated(lambda: model._build(Row, columns))
        init_size, by_init = allocated(lambda: list(map(Row, *columns)))
        assert [repr(row) for row in built] == [repr(row) for row in by_init]
        assert built_size < init_size + len(built)  # not a byte more per instance

    def test_profiles_and_cards_are_slotted(self, six_ip_dataset, default_weights):
        card = score_dataset(six_ip_dataset, default_weights)[0]
        assert not hasattr(six_ip_dataset.ips[0], "__dict__") and not hasattr(card, "__dict__")


# The first bad IP in file order words the error, with its first broken rule,
# even where a later IP breaks a rule that the column check applies earlier.
UNKNOWN_GPU = "unknown platform 'gpu' (expected one of ('asic', 'fpga', 'ecologic'))"
CROSS_IP = [
    # (overrides of the first IP, overrides of the third, message)
    pytest.param({"loc_changed": -1}, {"power_mw": {"gpu": 1.0}},
                 "IP 'ip1' field 'loc_changed' must be >= 0", id="number-before-map"),
    pytest.param({"loc_changed": -1}, {"bogus": 1},
                 "IP 'ip1' field 'loc_changed' must be >= 0", id="number-before-keys"),
    pytest.param({"power_mw": {"gpu": 1.0}}, {"loc_changed": -1},
                 f"IP 'ip1' field 'power_mw' {UNKNOWN_GPU}", id="map-before-number"),
    pytest.param({"slack_ns": {"asic": -1}}, {"id": 5},
                 "IP 'ip1' field 'slack_ns[asic]' must be >= 0", id="map-before-id"),
    pytest.param({"name": ""}, {"id": ""},
                 "IP 'ip1' field 'name' must be a non-empty string, got ''", id="name-before-id"),
]


class TestCrossIpOrder:
    @pytest.fixture
    def two_bad_ips(self, tmp_path):
        def write(first, third):
            entries = [ip_entry_dict(id=f"ip{i}") for i in (1, 2, 3)]
            entries[0].update(first)
            entries[2].update(third)
            return write_dataset(tmp_path / "two_bad.json", entries)
        return write

    @pytest.mark.parametrize("first, third, message", CROSS_IP)
    def test_load_names_the_first_bad_ip(self, two_bad_ips, first, third, message):
        with pytest.raises(ValidationError) as info:
            load_dataset(two_bad_ips(first, third))
        assert str(info.value) == message

    @pytest.mark.parametrize("first, third, message", CROSS_IP)
    def test_score_names_the_first_bad_ip(self, two_bad_ips, tmp_path, capsys, demo_config,
                                          first, third, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**demo_config, "dataset": str(two_bad_ips(first, third))}),
                          encoding="utf-8")
        assert main(["score", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()
