from __future__ import annotations

import gc
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ecoplan
import ecoplan.cli
from ecoplan.cli import main
from ecoplan.fixtures import fixture_path


@pytest.fixture
def demo_config_text():
    return fixture_path("demo_config.json").read_text(encoding="utf-8")


@pytest.fixture
def write_config(tmp_path, demo_config_text):
    """Materialize a (possibly modified) copy of the demo config in tmp."""

    def _write(mutate=None, name="config.json"):
        raw = json.loads(demo_config_text)
        raw["dataset"] = str(fixture_path("six_ip_soc.json"))
        if mutate is not None:
            mutate(raw)
        if isinstance(raw.get("dataset"), dict):  # a dataset to write beside the config
            dataset = tmp_path / "dataset.json"
            dataset.write_text(json.dumps(raw["dataset"]), encoding="utf-8")
            raw["dataset"] = str(dataset)
        path = tmp_path / name
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    return _write


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestScoreCommand:
    def test_writes_all_formats(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "score.csv", "score.json", "score.md",
        ]

    def test_markdown_reproduces_score_table_layout(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        run_cli("score", "--config", config, "--out", out)
        lines = (out / "score.md").read_text().splitlines()
        assert lines[0].startswith(
            "| design | adaptability | piracy_threat | performance_tolerance "
            "| resource_fit | composite | normalized |"
        )
        assert lines[2].startswith("| d1 |")

    def test_formats_flag_limits_outputs(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out, "--formats", "json") == 0
        assert [p.name for p in out.iterdir()] == ["score.json"]

    def test_missing_dataset_exits_2_without_partial_files(self, write_config, tmp_path, capsys):
        config = write_config(lambda raw: raw.update(dataset=str(tmp_path / "missing.json")))
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 2
        assert not out.exists()
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_rename_leaves_no_temp_file(self, write_config, tmp_path, monkeypatch, k):
        out = tmp_path / "out"
        out.mkdir()
        names = ["score.json", "score.csv", "score.md"]  # the order of the renames
        for name in names:
            (out / name).write_text("old\n", encoding="utf-8")
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise PermissionError(f"rename {k} refused")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert run_cli("score", "--config", write_config(), "--out", out) == 2
        monkeypatch.undo()
        assert sorted(p.name for p in out.iterdir()) == sorted(names)  # no *.tmp
        new = [(out / name).read_text(encoding="utf-8") != "old\n" for name in names]
        assert new == [i < k - 1 for i in range(len(names))]

    def test_lone_surrogate_id_exits_1_without_an_output_directory(
        self, write_config, tmp_path, capsys
    ):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        raw["ips"][0]["id"] = "a\ud800"
        dataset = tmp_path / "surrogate.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")  # spelled as the escape \ud800
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset)))
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 1
        assert "IP id must encode as UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, named", [("id", "IP id"), ("name", "IP 'd1' field 'name'")],
                             ids=["id", "name"])
    def test_nul_in_id_or_name_exits_1_without_an_output_directory(
        self, write_config, tmp_path, capsys, field, named
    ):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        raw["ips"][0][field] = "a\u0000b"  # Python 3.10's csv cannot write it
        dataset = tmp_path / "nul.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset)))
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 1
        assert f"{named} must not contain NUL" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("unit", ["mm2", 5, None])
    def test_unknown_area_unit_exits_1_without_an_output_directory(
        self, write_config, tmp_path, capsys, unit
    ):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        raw["area_unit"] = unit
        dataset = tmp_path / "unit.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset)))
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 1
        assert "area_unit must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_piracy_past_one_within_the_weight_sum_tolerance_exits_0(self, write_config, tmp_path):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        raw["ips"][0].update(confidentiality_risk=1.0, io_control_nets=100,  # = internal nets
                             logic_mapped_to_efpga=2000)  # = total_logic
        dataset = tmp_path / "threat.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        # mu + nu + xi is 1.0000000000000002 as floats, within WEIGHT_SUM_TOLERANCE
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset), weights={
            **cfg["weights"], "mu": 0.56, "nu": 0.34, "xi": 0.1}))
        assert run_cli("partition", "--config", config, "--out", tmp_path / "p") == 0
        assert run_cli("score", "--config", config, "--out", tmp_path / "s") == 0
        card = json.loads((tmp_path / "s" / "score.json").read_text(encoding="utf-8"))["cards"][0]
        assert (card["design"], card["piracy_threat"]) == ("d1", 1.0)

    @pytest.mark.parametrize("flag", ["--out", "--formats"])
    def test_empty_flag_keeps_the_config_value(self, write_config, tmp_path, monkeypatch, flag):
        """An empty --out or --formats falls back to the config's value."""
        config = write_config()
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = ["--out", tmp_path / "flag"] if flag == "--formats" else []
        assert run_cli("score", "--config", config, *argv, flag, "") == 0
        out = tmp_path / ("flag" if argv else "out")  # the demo config's output_dir is "out"
        assert sorted(p.name for p in out.iterdir()) == ["score.csv", "score.json", "score.md"]
        assert list(cwd.iterdir()) == []

    def test_invalid_weights_exit_1(self, write_config, tmp_path, capsys):
        config = write_config(lambda raw: raw["weights"].update(alpha=0.9))
        out = tmp_path / "out"
        assert run_cli("score", "--config", config, "--out", out) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "partition", "carbon", "compare", "aging"])
    def test_rerun_is_byte_identical(self, write_config, tmp_path, command):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli(command, "--config", config, "--out", out) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli(command, "--config", config, "--out", out) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


def seeded_soc(n: int, seed: int) -> dict:
    """A dataset of ``n`` IPs with every platform map. Fields come from small
    pools, so that composites, areas and platform values tie often."""
    rng = random.Random(seed)
    ips = []
    for i in rng.sample(range(10 * n), n):  # ids out of order
        maps = {name: {p: rng.choice([1.0, 2.5, 40.0]) for p in ("asic", "fpga", "ecologic")}
                for name in ("power_mw", "slack_ns", "area_mm2")}
        ips.append({
            "id": f"ip{i}", "name": f"block {i}", "loc_changed": rng.choice([0, 10, 500]),
            "confidentiality_risk": rng.choice([0, 0.5, 1]), "io_control_nets": rng.choice([0, 5]),
            "internal_nets_and_state": 10, "logic_mapped_to_efpga": rng.choice([0, 5]),
            "total_logic": 10, "f_max_asic": 2.0, "f_max_efpga": rng.choice([1.0, 2.0]),
            "f_max_fpga": rng.choice([0.2, 0.4]), "area": rng.choice([1000, 2000, 4000]), **maps,
        })
    return {"schema_version": "1", "area_unit": "um2", "ips": ips}


def test_outputs_do_not_depend_on_the_hash_seed(write_config, tmp_path):
    raw = seeded_soc(300, seed=7)
    dataset = tmp_path / "soc.json"
    dataset.write_text(json.dumps(raw), encoding="utf-8")
    capacity = 0.25 * sum(ip["area"] for ip in raw["ips"])
    config = write_config(
        lambda cfg: cfg.update(dataset=str(dataset), fabric_budget={"capacity": capacity})
    )
    src = str(Path(ecoplan.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"out-{hash_seed}"
        for argv in (["score"], ["partition", "--method", "greedy"], ["compare"]):
            subprocess.run([sys.executable, "-m", "ecoplan.cli", *argv, "--config", config,
                            "--out", out], env=env, check=True, capture_output=True)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 9
    assert outputs[0] == outputs[1]


class TestPartitionCommand:
    def test_exact_and_greedy_agree_unconstrained(self, write_config, tmp_path):
        total_area = 82400 + 76000 + 120000 + 109600 + 40000 + 52800
        config = write_config(
            lambda raw: raw.update(fabric_budget={"capacity": total_area})
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("partition", "--config", config, "--out", out_a, "--method", "greedy") == 0
        assert run_cli("partition", "--config", config, "--out", out_b, "--method", "exact") == 0
        plan_a = json.loads((out_a / "partition.json").read_text())
        plan_b = json.loads((out_b / "partition.json").read_text())
        assert plan_a["efpga_ips"] == plan_b["efpga_ips"]
        assert plan_a["efpga_ips"] == ["d1", "d2", "d3", "d4", "d5", "d6"]

    def test_exact_on_demo_budget_selects_top_two(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("partition", "--config", config, "--out", out, "--method", "exact") == 0
        plan = json.loads((out / "partition.json").read_text())
        assert plan["efpga_ips"] == ["d1", "d2"]
        assert plan["method"] == "exact"

    def test_zero_capacity_flag_rejected(self, write_config, tmp_path, capsys):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli(
            "partition", "--config", config, "--out", out, "--capacity", "0"
        ) == 1
        assert not out.exists()
        assert "--capacity" in capsys.readouterr().err


    @pytest.mark.parametrize("capacity", [True, "big"])
    def test_non_number_capacity_is_validation_error(
        self, write_config, tmp_path, capsys, capacity
    ):
        config = write_config(lambda raw: raw.update(fabric_budget={"capacity": capacity}))
        out = tmp_path / "out"
        assert run_cli("partition", "--config", config, "--out", out) == 1
        assert "fabric_budget capacity must be a real number" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_import_does_not_load_numpy(self):
        code = "import ecoplan.cli, sys; assert 'numpy' not in sys.modules"
        env = dict(os.environ)
        src = str(Path(ecoplan.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestCarbonCommand:
    def test_full_grid_and_reduction_stats(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("carbon", "--config", config, "--out", out) == 0
        payload = json.loads((out / "carbon.json").read_text())
        # 6 designs x 2 platforms x 8 cells
        assert len(payload["cells"]) == 96
        assert payload["mean_reduction"] == pytest.approx(0.997, abs=5e-4)
        assert payload["mean_reduction_designs"] == ["d1", "d2", "d3", "d4", "d6"]
        assert payload["reductions_vs_fpga"]["d5"] < 0

    def test_single_cell_spec_gives_one_row_per_platform(self, write_config, tmp_path):
        def single_cell(raw):
            raw["carbon"]["sweep"] = {
                "lifetimes_years": [1.0],
                "volumes": [1000000],
                "fixed_lifetime_for_volume_sweep_years": 1.0,
            }
            raw["carbon"]["anchors"] = {"d1": {"ecologic": 46600.0}}
            raw["carbon"]["reduction_designs"] = []

        config = write_config(single_cell)
        out = tmp_path / "out"
        assert run_cli("carbon", "--config", config, "--out", out) == 0
        rows = (out / "carbon.csv").read_text().splitlines()
        assert rows[0] == "design,platform,scenario_kind,scenario_value,kg_co2"
        assert len(rows) == 3  # header + lifetime cell + volume cell
        assert rows[1].startswith("d1,ecologic,lifetime_years,1,4.66e+04")

    def test_infeasible_anchor_exits_1_without_files(self, write_config, tmp_path, capsys):
        def poison(raw):
            raw["carbon"]["base"]["rtl_synth_hours"] = 2.5
            raw["carbon"]["base"]["hls_synth_hours"] = 1.0
            raw["carbon"]["anchors"] = {"d1": {"ecologic": 1.0}}  # below app-dev floor

        config = write_config(poison)
        out = tmp_path / "out"
        assert run_cli("carbon", "--config", config, "--out", out) == 1
        assert not out.exists()
        assert "infeasible anchor" in capsys.readouterr().err


class TestCompareCommand:
    def test_ratios_and_echoed_fixture_values(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("compare", "--config", config, "--out", out) == 0
        payload = json.loads((out / "compare.json").read_text())
        agg = payload["aggregates"]
        assert agg["power_mw"]["ratio"] == pytest.approx(480.8, abs=0.5)
        assert agg["frequency_ghz"]["ratio"] == 16.0
        assert agg["slack_ns"]["ours"] == 9.8
        assert agg["slack_ns"]["baseline"] == 5.1
        table = (out / "compare.md").read_text()
        assert "| 9.8 | 5.1 |" in table
        assert "480.8" in table

    def test_identical_platforms_rejected(self, write_config, tmp_path):
        config = write_config(
            lambda raw: raw.update(compare={"ours": "fpga", "baseline": "fpga"})
        )
        assert run_cli("compare", "--config", config, "--out", tmp_path / "o") == 1

    def test_series_csv_has_per_design_points(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        run_cli("compare", "--config", config, "--out", out)
        rows = (out / "compare.csv").read_text().splitlines()
        assert rows[0] == "metric,series,x,y"
        # 4 metrics x 2 platforms x 6 designs
        assert len(rows) == 1 + 4 * 2 * 6

    @pytest.mark.parametrize(
        "platform, value, named",
        [("ecologic", 0, "power_mw ratio is not finite: platform 'ecologic' has mean 0.0"),
         ("fpga", 1.7e308, "power_mw values of platform 'fpga' overflow their sum")],
        ids=["ours-power-zero", "baseline-power-overflow"],
    )
    def test_compare_on_unusable_power_exits_1_without_files(
        self, write_config, tmp_path, capsys, platform, value, named
    ):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        for ip in raw["ips"]:
            ip["power_mw"][platform] = value
        dataset = tmp_path / "power.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset)))
        out = tmp_path / "o"
        assert run_cli("compare", "--config", config, "--out", out) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestAgingCommand:
    def test_reports_slacks_and_remap(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli("aging", "--config", config, "--out", out) == 0
        payload = json.loads((out / "aging.json").read_text())
        assert payload["temperature_c"] == 130
        assert payload["slack_ns"]["ecologic"] > 5.0
        assert payload["slack_ns"]["asic"] == pytest.approx(2.1, abs=1e-9)
        remap = payload["remap"]
        assert remap["min_slack_after"] >= remap["min_slack_before"]
        assert remap["assignment"]["crypto"] == "r0"

    def test_temperature_flag_overrides_config(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli(
            "aging", "--config", config, "--out", out, "--temperature", "100"
        ) == 0
        payload = json.loads((out / "aging.json").read_text())
        assert payload["temperature_c"] == 100.0
        assert payload["slack_ns"]["fpga"] < 6.0

    def test_out_of_range_temperature_exits_1(self, write_config, tmp_path):
        config = write_config()
        out = tmp_path / "out"
        assert run_cli(
            "aging", "--config", config, "--out", out, "--temperature", "200"
        ) == 1
        assert not out.exists()


def mean_reduction_overflow(raw):
    """A config mutation: two designs whose reductions at 1 year are each about
    -1e308, so their sum overflows, while each design's own mean stays finite
    (its cell at 1e-300 years is about -2e10)."""
    raw["carbon"].update(
        base={"n_vol": 1000000, "grid_intensity": 700, "cpu_power_per_core_w": 10,
              "cpu_cores": 8, "rtl_synth_hours": 1e-6, "hls_synth_hours": 0, "config_hours": 0},
        anchors={"d1": {"ecologic": 1e306, "fpga": 0.01}, "d2": {"ecologic": 1e306, "fpga": 0.01}},
        sweep={"lifetimes_years": [1e-300, 1.0], "volumes": [1],
               "fixed_lifetime_for_volume_sweep_years": 1e-300},
        reduction_designs=["d1", "d2"],
        reduction_scenario={"kind": "lifetime_years", "value": 1.0},
    )


def slack_step_overflow(raw):
    """A config mutation: a curve whose one temperature step, 2e308 degrees, overflows."""
    raw["aging"].update(curves={"ecologic": [[-1e308, 1.0], [1e308, 2.0]]}, temperature_c=9e307)


def unpaired(**carbon):
    """A config mutation: one design with only an ecologic anchor, so no design
    is paired, and the ``carbon`` keys given."""
    return lambda raw: raw["carbon"].update(anchors={"d1": {"ecologic": 46600}}, **carbon)


def six_ip(change):
    """A config mutation: the dataset is the six-IP fixture after ``change``,
    given as an object for ``write_config`` to write."""

    def mutate(raw):
        dataset = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        change(dataset)
        raw["dataset"] = dataset

    return mutate


def _objects(value):
    """Every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _objects(item)


def _dumps_repeating(value, target, key):
    """``value`` as JSON text, with the ``key`` entry of the object ``target`` written twice."""
    if isinstance(value, dict):
        pairs = [*value.items(), *([(key, value[key])] if value is target else [])]
        return "{%s}" % ", ".join(
            f"{json.dumps(k)}: {_dumps_repeating(v, target, key)}" for k, v in pairs
        )
    if isinstance(value, list):
        return "[%s]" % ", ".join(_dumps_repeating(v, target, key) for v in value)
    return json.dumps(value)


class TestConfigStrictness:
    @pytest.mark.parametrize("repeated", ["config", "dataset"])
    def test_each_key_given_twice_is_parse_error(self, write_config, tmp_path, capsys, repeated):
        """Each key of each object in the file, once written twice with the same value."""
        config = write_config()
        raw = json.loads(config.read_text(encoding="utf-8"))
        path = config
        if repeated == "dataset":
            path = tmp_path / "dataset.json"
            config.write_text(json.dumps({**raw, "dataset": str(path)}), encoding="utf-8")
            raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        path.write_text(_dumps_repeating(raw, None, None), encoding="utf-8")
        assert run_cli("score", "--config", config, "--out", tmp_path / "control") == 0
        cases = [(obj, key) for obj in _objects(raw) for key in obj]
        assert len(cases) > 40
        out = tmp_path / "o"
        for obj, key in cases:
            path.write_text(_dumps_repeating(raw, obj, key), encoding="utf-8")
            assert run_cli("score", "--config", config, "--out", out) == 1
            assert f"{path}: not valid JSON: key {key!r} given twice" in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_config_key_rejected(self, write_config, tmp_path, capsys):
        config = write_config(lambda raw: raw.update(notes="hi"))
        assert run_cli("score", "--config", config, "--out", tmp_path / "o") == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_format_rejected(self, write_config, tmp_path):
        config = write_config()
        assert run_cli(
            "score", "--config", config, "--out", tmp_path / "o", "--formats", "pdf"
        ) == 1

    def test_carbon_base_typo_is_validation_error(self, write_config, tmp_path, capsys):
        config = write_config(lambda raw: raw["carbon"]["base"].update(grid_intensty=700))
        assert run_cli("carbon", "--config", config, "--out", tmp_path / "o") == 1
        assert "grid_intensty" in capsys.readouterr().err

    def test_unknown_anchor_platform_is_validation_error(self, write_config, tmp_path, capsys):
        config = write_config(
            lambda raw: raw["carbon"]["anchors"].update(d9={"gpu": 1000.0})
        )
        assert run_cli("carbon", "--config", config, "--out", tmp_path / "o") == 1
        assert "unknown platform" in capsys.readouterr().err

    def test_aging_region_typo_is_validation_error(self, write_config, tmp_path, capsys):
        def poison(raw):
            region = raw["aging"]["regions"][0]
            region["helth_factor"] = region.pop("health_factor")

        config = write_config(poison)
        assert run_cli("aging", "--config", config, "--out", tmp_path / "o") == 1
        assert "helth_factor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value, owner",
        [
            ("regions", "capacity", "600", "region 'r0'"),
            ("regions", "health_factor", "1.0", "region 'r0'"),
            ("blocks", "size", "300", "block 'crypto'"),
        ],
        ids=["region-capacity", "region-health_factor", "block-size"],
    )
    def test_string_typed_aging_number_is_validation_error(
        self, write_config, tmp_path, capsys, section, field, value, owner
    ):
        config = write_config(lambda raw: raw["aging"][section][0].update({field: value}))
        out = tmp_path / "o"
        assert run_cli("aging", "--config", config, "--out", out) == 1
        assert f"{owner} {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, mutate, section",
        [
            ("carbon", lambda raw: raw["carbon"].update(reduction_scenario={"value": 1.0}),
             "carbon reduction_scenario"),
            ("aging", lambda raw: raw["aging"]["regions"][0].pop("health_factor"),
             "aging region"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].pop("size"), "aging block"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(d1=46600.0),
             "carbon anchors 'd1'"),
            ("aging", lambda raw: raw["aging"].update(curves=[[25, 9.8], [130, 5.4]]),
             "aging curves"),
            ("carbon", lambda raw: raw["carbon"]["anchors"]["d1"].update(ecologic=None),
             "carbon anchors 'd1' ecologic"),
            ("carbon", lambda raw: raw["carbon"].update(anchor_lifetime_years=None),
             "carbon anchor_lifetime_years"),
            ("aging", lambda raw: raw["aging"]["curves"].update(asic=5), "curve 'asic'"),
            ("aging", lambda raw: raw["aging"]["curves"].update(asic=[1, 2]), "curve 'asic'"),
            ("score", lambda raw: raw.update(normalize_piracy="false"), "normalize_piracy"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(volumes=[1.5]),
             "carbon sweep volumes"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(volumes=1000),
             "carbon sweep volumes"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(lifetimes_years=["2"]),
             "carbon sweep lifetimes_years"),
            ("carbon", lambda raw: raw["carbon"]["reduction_scenario"].update(value=None),
             "carbon reduction_scenario value"),
            ("aging", lambda raw: raw["aging"].update(temperature_c="130"), "aging temperature"),
            ("carbon", lambda raw: raw["carbon"]["base"].update(n_vol=10**400), "n_vol"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(volumes=[1000, 10**400]),
             "carbon sweep volumes"),
            ("carbon", lambda raw: raw["carbon"]["anchors"]["d1"].update(fpga=10**400),
             "carbon anchors 'd1' fpga"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].update(size=10**400),
             "block 'crypto' size"),
            ("score", lambda raw: raw["weights"].update(alpha=10**400), "weight 'alpha'"),
            ("score", lambda raw: raw.update(dataset=5), "dataset must be a non-empty string"),
            ("score", lambda raw: raw.update(output_dir=5),
             "output_dir must be a non-empty string"),
            ("score", lambda raw: raw.update(formats=5), "formats must be a list of strings"),
            ("score", lambda raw: raw.update(formats="json"), "formats must be a list of strings"),
            ("score", lambda raw: raw.update(formats=[5]), "formats must be a list of strings"),
            ("carbon", lambda raw: raw["carbon"].update(reduction_designs=5),
             "carbon reduction_designs must be a list of strings"),
            ("carbon", lambda raw: raw["carbon"].update(reduction_designs="d1"),
             "carbon reduction_designs must be a list of strings"),
            ("carbon", lambda raw: raw["carbon"].update(reduction_designs=[["d1"]]),
             "carbon reduction_designs must be a list of strings"),
            ("aging", lambda raw: raw["aging"].update(regions=5), "aging regions must be a list"),
            ("aging", lambda raw: raw["aging"].update(blocks=5), "aging blocks must be a list"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].update(id=5),
             "block id must be a non-empty string"),
            ("aging", lambda raw: raw["aging"]["regions"][0].update(id=["x"]),
             "region id must be a non-empty string"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].update(id=["x"]),
             "block id must be a non-empty string"),
            ("aging", lambda raw: raw["aging"]["regions"][0].update(id=5),
             "region id must be a non-empty string"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].update(region=5),
             "block 'crypto' region must be a non-empty string"),
            ("carbon", lambda raw: raw["carbon"]["reduction_scenario"].update(kind=5),
             "carbon reduction_scenario kind"),
            ("aging", lambda raw: raw["aging"].update(blocks=[]), "aging blocks"),
            ("aging", lambda raw: raw["aging"].pop("blocks"), "aging blocks"),
            ("aging", lambda raw: raw["aging"].update(regions=[]), "aging regions"),
            ("score", lambda raw: raw.update(partition_method=5), "partition_method"),
            ("score", lambda raw: raw["carbon"].update(anchor_lifetime_years="1"),
             "carbon anchor_lifetime_years"),
            ("score", lambda raw: raw["aging"].update(curves=5), "aging curves"),
            ("score", lambda raw: raw["compare"].update(ours="gpu"), "compare ours"),
            ("score", lambda raw: raw["compare"].update(notes="x"), "compare: unknown key"),
            ("aging", lambda raw: raw["fabric_budget"].update(capacity="big"),
             "fabric_budget capacity"),
            ("carbon", lambda raw: raw["carbon"].update(sweep={}), "carbon sweep: missing key"),
            ("carbon", lambda raw: raw["carbon"]["anchors"]["d1"].update(ecologic=1e308),
             "design 'd1' on ecologic is not finite in cell"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(
                d1={"ecologic": 1e10, "fpga": 1e-300}),
             "reduction of design 'd1' is not finite in cell"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(
                d1={"ecologic": 1e8, "fpga": 4e-300}),
             "mean reduction of design 'd1' overflows"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(
                {"x\ud800": raw["carbon"]["anchors"].pop("d1")}),
             "carbon anchors design must encode as UTF-8"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(
                {"x\u0000": raw["carbon"]["anchors"].pop("d1")}),
             "carbon anchors design must not contain NUL"),
            ("carbon", lambda raw: raw["carbon"]["anchors"].update(d7={}),
             "carbon anchors 'd7' must map platform -> kg"),
            ("carbon", lambda raw: raw["carbon"].update(reduction_designs=["d1", "x\ud800"]),
             "carbon reduction_designs entry must encode as UTF-8"),
            ("carbon", lambda raw: raw["carbon"].update(reduction_designs=["d1", "x\u0000"]),
             "carbon reduction_designs entry must not contain NUL"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(lifetimes_years=[1.0, 1, 2.0]),
             "carbon sweep lifetimes_years repeats 1.0"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(volumes=[1000, 6000, 1000]),
             "carbon sweep volumes repeats 1000.0"),
            ("carbon", lambda raw: raw["carbon"]["reduction_scenario"].update(value=3.0),
             "carbon reduction_scenario lifetime_years 3.0 is not a cell of the sweep grid"),
            ("carbon", unpaired(reduction_designs=None,
                                reduction_scenario={"kind": "volume", "value": 5.0}),
             "carbon reduction_scenario volume 5.0 is not a cell of the sweep grid"),
            ("carbon", unpaired(reduction_designs=["nope"]),
             "no comparison available for design 'nope'"),
            ("carbon", unpaired(reduction_designs=["d1"]),
             "no comparison available for design 'd1'"),
            ("aging", lambda raw: raw["aging"]["curves"].update({"a\u0000b": [[25, 1], [140, 1]]}),
             "curve platform must not contain NUL"),
            ("aging", lambda raw: raw["aging"]["curves"].update({"a\ud800": [[25, 1], [140, 1]]}),
             "curve platform must encode as UTF-8"),
            ("aging", lambda raw: raw["aging"]["curves"].update({"": [[25, 1], [140, 1]]}),
             "curve platform must be a non-empty string"),
            ("aging", lambda raw: raw["aging"].update(curves={}), "aging curves must be non-empty"),
            ("aging", lambda raw: raw["aging"].pop("temperature_c"),
             "no temperature given (config temperature_c or --temperature)"),
            ("aging --temperature 200", None,
             "temperature 200.0 outside curve 'asic' range [25.0, 140.0]"),
            ("aging", lambda raw: raw["aging"]["curves"].update(asic=[[25, 9.4]]),
             "curve 'asic' needs at least 2 points"),
            ("aging", lambda raw: raw["aging"]["curves"].update(asic=[[25, 9.4], [60]]),
             "curve 'asic' points must be [temperature, slack] pairs"),
            ("aging", lambda raw: raw["aging"]["blocks"][0].update(region="r9"),
             "block 'crypto' currently assigned to unknown region 'r9'"),
            ("partition", lambda raw: raw.pop("fabric_budget"),
             "no fabric capacity given (config fabric_budget or --capacity)"),
            ("carbon", lambda raw: raw.pop("carbon"), "config has no 'carbon' section"),
            ("aging", lambda raw: raw.pop("aging"), "config has no 'aging' section"),
            ("carbon", lambda raw: raw["carbon"].update(anchors={}),
             "carbon anchors must map design -> platform -> kg"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(lifetimes_years=[]),
             "carbon sweep lifetimes_years must be non-empty"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(volumes=[]),
             "carbon sweep volumes must be non-empty"),
            ("carbon", lambda raw: raw["carbon"].update(anchor_lifetime_years=0),
             "carbon anchor_lifetime_years in hours must be > 0"),
            ("carbon", lambda raw: raw["carbon"].update(anchor_lifetime_years=1e306),
             "carbon anchor_lifetime_years in hours must be finite, got inf"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(lifetimes_years=[1e306]),
             "carbon sweep lifetimes_years in hours must be finite, got inf"),
            ("carbon", lambda raw: raw["carbon"]["sweep"].update(
                fixed_lifetime_for_volume_sweep_years=1e306),
             "carbon sweep fixed_lifetime_for_volume_sweep_years in hours must be finite, got inf"),
            ("score", lambda raw: raw.update(formats=[]), "at least one output format is required"),
            ("score --formats xml", None, "unknown format(s): xml"),
            ("score", six_ip(lambda data: data.update(schema_version="2")),
             "unknown schema_version '2'"),
            ("score", six_ip(lambda data: data.update(ips=[])), "'ips' must be a non-empty list"),
            ("compare", lambda raw: raw["compare"].update(baseline="ecologic"),
             "platforms to compare must differ"),
            ("compare", six_ip(lambda data: [ip.pop("power_mw") for ip in data["ips"]]),
             "IP 'd1' has no power_mw value for platform 'ecologic'"),
            ("carbon", mean_reduction_overflow, "mean reduction at lifetime_years 1.0 overflows"),
            ("aging", slack_step_overflow,
             "curve 'ecologic' temperatures must be strictly increasing in finite steps"),
            ("score", lambda raw: raw.update(dataset="a\u0000b"), "dataset must not contain NUL"),
            ("score", lambda raw: raw.update(output_dir="o\u0000"),
             "output_dir must not contain NUL"),
            ("score", lambda raw: raw.update(output_dir=""),
             "output_dir must be a non-empty string"),
            ("score", lambda raw: raw.update(dataset=""), "dataset must be a non-empty string"),
            ("score", lambda raw: raw.update(formats=[""]),
             "formats entry must be a non-empty string"),
            ("score", lambda raw: raw.update(dataset="a\ud800"), "dataset must encode as UTF-8"),
            ("score", lambda raw: raw["carbon"].update(reduction_designs=["a\u0000"]),
             "carbon reduction_designs entry must not contain NUL"),
            ("carbon", lambda raw: raw["carbon"]["base"].update(cpu_power_per_core_w=1e308),
             "app-dev carbon from cpu_power_per_core_w, cpu_cores, rtl_synth_hours, "
             "hls_synth_hours, config_hours and grid_intensity must be finite"),
            ("carbon", lambda raw: raw["carbon"]["base"].update(rtl_synth_hours=1e308),
             "app-dev carbon from cpu_power_per_core_w"),
            ("carbon", lambda raw: raw["carbon"]["base"].update(grid_intensity=1e308),
             "e_use_per_hour_kwh from the anchor 46600.0 kg over n_vol * grid_intensity * "
             "lifetime_hours must be > 0"),
            ("carbon", lambda raw: (raw["carbon"]["base"].update(grid_intensity=1e-300),
                                    raw["carbon"].update(anchor_lifetime_years=1e-300)),
             "e_use_per_hour_kwh from the anchor 46600.0 kg"),
            ("partition", lambda raw: (raw.pop("fabric_budget"), raw.update(dataset="none.json")),
             "no fabric capacity given (config fabric_budget or --capacity)"),
            ("aging --temperature nan", None, "--temperature must be finite, got nan"),
            ("aging --temperature inf", None, "--temperature must be finite, got inf"),
            ("score --formats json,,csv", None,
             "error: --formats entry must be a non-empty string, got ''"),
            ("score --formats json,xml", None, "error: --formats: unknown format(s): xml"),
            ("score", lambda raw: raw.update(formats=[]),
             "config.json: formats: at least one output format is required"),
        ],
        ids=["scenario-no-kind", "region-no-health_factor", "block-no-size",
             "anchor-not-object", "curves-as-list", "anchor-null", "anchor-lifetime-null",
             "curve-not-list", "curve-point-not-pair", "normalize-piracy-string",
             "volume-not-integer", "volumes-not-list", "lifetime-string", "scenario-value-null",
             "temperature-string", "n-vol-too-large", "volume-too-large", "anchor-too-large",
             "block-size-too-large", "weight-too-large", "dataset-not-string",
             "output-dir-not-string", "formats-not-list", "formats-string", "format-not-string",
             "reduction-designs-not-list", "reduction-designs-string",
             "reduction-design-not-string", "regions-not-list", "blocks-not-list",
             "block-id-int", "region-id-list", "block-id-list", "region-id-int",
             "block-region-int", "scenario-kind-int", "blocks-empty", "regions-without-blocks",
             "regions-empty", "partition-method-int", "carbon-section-read-by-score",
             "aging-section-read-by-score", "compare-platform-read-by-score",
             "compare-unknown-key", "fabric-budget-read-by-aging", "sweep-empty",
             "anchor-cell-infinite", "reduction-infinite", "mean-reduction-overflow",
             "anchor-design-surrogate", "anchor-design-nul", "anchor-design-empty",
             "reduction-design-surrogate", "reduction-design-nul", "lifetime-repeat",
             "volume-repeat", "scenario-off-grid", "scenario-off-grid-unpaired",
             "reduction-design-unknown-unpaired", "reduction-design-unpaired",
             "curve-platform-nul", "curve-platform-surrogate", "curve-platform-empty",
             "curves-empty", "temperature-missing", "temperature-outside-curve",
             "curve-one-point", "curve-point-short", "block-unknown-region", "capacity-missing",
             "carbon-section-missing", "aging-section-missing", "anchors-empty",
             "lifetimes-empty", "volumes-empty", "anchor-lifetime-zero",
             "anchor-lifetime-overflow", "lifetime-overflow", "fixed-lifetime-overflow",
             "formats-empty", "format-unknown-flag",
             "dataset-schema-version", "dataset-ips-empty", "compare-same-platform",
             "dataset-without-power", "mean-reduction-sum-overflow", "slack-step-overflow",
             "dataset-nul", "output-dir-nul", "output-dir-empty", "dataset-empty",
             "format-empty", "dataset-surrogate", "reduction-design-nul-read-by-score",
             "app-dev-nan", "app-dev-infinite", "calibration-denominator-overflow",
             "calibration-denominator-underflow", "capacity-missing-before-dataset-load",
             "temperature-flag-nan", "temperature-flag-inf", "format-flag-entry-empty",
             "format-unknown-flag-named", "formats-empty-named"],
    )
    def test_malformed_section_is_validation_error(
        self, write_config, tmp_path, capsys, command, mutate, section
    ):
        config = write_config(mutate)
        out = tmp_path / "o"
        assert run_cli(*command.split(), "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert section in err and err.count("\n") == 1, err  # one line, naming the field
        assert not out.exists()

    @pytest.mark.parametrize(
        "field",
        ["area", "loc_changed", "io_control_nets", "total_logic", "internal_nets_and_state",
         "power_mw"],
    )
    def test_dataset_integer_too_large_for_a_float_is_validation_error(
        self, write_config, tmp_path, capsys, field
    ):
        raw = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
        if field == "power_mw":
            raw["ips"][3]["power_mw"]["fpga"] = 10**400
            named = "IP 'd4' field 'power_mw[fpga]'"
        else:
            raw["ips"][3][field] = 10**400
            named = f"IP 'd4' field {field!r}"
        dataset = tmp_path / "huge.json"
        dataset.write_text(json.dumps(raw), encoding="utf-8")
        config = write_config(lambda cfg: cfg.update(dataset=str(dataset)))
        out = tmp_path / "o"
        assert run_cli("score", "--config", config, "--out", out) == 1
        assert f"{named} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_typo_is_validation_error(self, write_config, tmp_path, capsys):
        config = write_config(lambda raw: raw["carbon"]["sweep"].update(volums=[1]))
        assert run_cli("carbon", "--config", config, "--out", tmp_path / "o") == 1
        assert "volums" in capsys.readouterr().err


# One bad value of each JSON kind and edge, for every key path of the demo config
BAD_VALUES = (None, True, 0, -1, 1.5, 1e308, 10**400, "x", "", [], [5], {}, {"x": 1})
ABSENT = object()  # in the sweep: the key or list entry is deleted
COMMANDS = ("score", "partition", "carbon", "compare", "aging")
# the subcommands that read what lies below each top-level section (others: all)
READERS = {"weights": ("score", "partition"), "fabric_budget": ("partition",),
           "carbon": ("carbon",), "compare": ("compare",), "aging": ("aging",)}


# Each subcommand's flags beyond --config, --out and --formats
EXTRA_FLAGS = {"score": (), "partition": ("--method", "--capacity"), "carbon": (), "compare": (),
               "aging": ("--temperature",)}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_subcommand_has_its_flags_and_help(capsys, command):
    """argparse formats the help text only at --help, so this also checks the
    help strings of the command and flag tables."""
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"--\w+", text)) == {
        "--help", "--config", "--out", "--formats", *EXTRA_FLAGS[command]}
    assert ("--method {greedy,exact}" in text) == (command == "partition")


def key_paths(node, path=()):
    """Every path of keys and list indices into ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from key_paths(child, path + (key,))


def _no_constant(name):
    raise AssertionError(f"non-finite number {name} in a JSON report")


def test_config_sweep_never_crashes_or_writes_bad_json(write_config, tmp_path, demo_config_text):
    """Each bad value, or none, at each key path: exit 0, 1 or 2 from every
    subcommand that reads it, no files after an error, and strict JSON after a
    success."""
    out = tmp_path / "o"
    failures = []
    for path in key_paths(json.loads(demo_config_text)):
        commands = COMMANDS if len(path) == 1 else READERS.get(path[0], COMMANDS)
        for bad in BAD_VALUES + (ABSENT,):
            def mutate(raw):
                node = raw
                for key in path[:-1]:
                    node = node[key]
                if bad is ABSENT:
                    node.pop(path[-1])
                else:
                    node[path[-1]] = bad

            config = write_config(mutate)
            for command in commands:
                code = run_cli(command, "--config", config, "--out", out)
                if code not in (0, 1, 2) or code and out.exists():
                    failures.append((path, bad, command, code))
                elif code == 0:
                    for report in out.glob("*.json"):
                        json.loads(report.read_text(encoding="utf-8"), parse_constant=_no_constant)
                    shutil.rmtree(out)
    assert failures == []


# The bad values of the config sweep, plus the edges of the dataset's numbers and maps,
# and a NUL, which Python 3.10's csv cannot write
BAD_IP_VALUES = BAD_VALUES + (2**53 + 1, {"gpu": 1}, {"asic": -1}, {"asic": 1e308}, "a\u0000b")


def test_dataset_sweep_never_crashes_or_writes_bad_json(write_config, tmp_path):
    """Each bad value, or none, at each IP field of the demo dataset, in IP 0
    and in every IP: exit 0, 1 or 2 from each subcommand that loads the
    dataset, no files after an error, and strict JSON after a success."""
    demo = json.loads(fixture_path("six_ip_soc.json").read_text(encoding="utf-8"))
    dataset = tmp_path / "dataset.json"
    config = write_config(lambda raw: raw.update(dataset=str(dataset)))
    out = tmp_path / "o"
    failures = []
    for field in sorted({key for ip in demo["ips"] for key in ip}):
        for bad in BAD_IP_VALUES + (ABSENT,):
            for count in (1, len(demo["ips"])):
                raw = json.loads(json.dumps(demo))
                for ip in raw["ips"][:count]:
                    if bad is ABSENT:
                        ip.pop(field, None)
                    else:
                        ip[field] = bad
                dataset.write_text(json.dumps(raw), encoding="utf-8")
                for command in ("score", "partition", "compare"):
                    code = run_cli(command, "--config", config, "--out", out)
                    if code not in (0, 1, 2) or code and out.exists():
                        failures.append((field, bad, count, command, code))
                    elif code == 0:
                        for report in out.glob("*.json"):
                            json.loads(report.read_text(encoding="utf-8"),
                                       parse_constant=_no_constant)
                        shutil.rmtree(out)
    assert failures == []


# Files the JSON reader must turn away: deep nesting (RecursionError), bytes that
# are not UTF-8, and an integer longer than int() converts by default (4300 digits)
NOT_JSON = {"nested-100k-deep": b"[" * 100_000 + b"]" * 100_000, "not-utf-8": b'{"x": "\xff"}',
            "5001-digit-integer": b'{"x": ' + b"9" * 5001 + b"}"}


@pytest.mark.parametrize("which", ["config", "dataset"])
@pytest.mark.parametrize("kind", NOT_JSON)
def test_unreadable_json_exits_1_naming_the_file(write_config, tmp_path, capsys, which, kind):
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(NOT_JSON[kind])
    config = bad if which == "config" else write_config(lambda raw: raw.update(dataset=str(bad)))
    out = tmp_path / "o"
    assert run_cli("score", "--config", config, "--out", out) == 1
    assert f"error: {bad}: not valid JSON: " in capsys.readouterr().err
    assert not out.exists()


# The optional keys of the demo config, and the subcommand that has nothing to
# run without that key (all others run on the key's default)
OPTIONAL = {"schema_version": None, "normalize_piracy": None, "fabric_budget": "partition",
            "fabric_budget capacity": "partition", "partition_method": None,
            "output_dir": None, "formats": None, "carbon": "carbon", "compare": None,
            "aging": "aging", "carbon anchor_lifetime_years": None,
            "carbon reduction_designs": None, "carbon reduction_scenario": None,
            "compare ours": None, "compare baseline": None, "aging temperature_c": "aging",
            "aging regions": "aging", "aging blocks": "aging"}


@pytest.mark.parametrize("key", OPTIONAL)
def test_absent_optional_key_takes_its_default(write_config, tmp_path, capsys, key):
    *section, name = key.split()

    def drop(raw):
        node = raw
        for part in section:
            node = node[part]
        del node[name]

    config = write_config(drop)
    for command in COMMANDS:
        out = tmp_path / command
        code = run_cli(command, "--config", config, "--out", out)
        assert code == (1 if command == OPTIONAL[key] else 0), capsys.readouterr().err
        assert out.exists() == (code == 0)


def test_absent_regions_and_blocks_skip_the_remap(write_config, tmp_path):
    config = write_config(lambda raw: [raw["aging"].pop(k) for k in ("regions", "blocks")])
    out = tmp_path / "o"
    assert run_cli("aging", "--config", config, "--out", out) == 0
    assert "remap" not in json.loads((out / "aging.json").read_text())


def _collector_state():
    return gc.isenabled(), gc.get_freeze_count()


def _internal_error(config):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "not-collecting"])
def test_main_with_argv_leaves_the_callers_collector_alone(
    write_config, tmp_path, capsys, monkeypatch, enabled
):
    """``main(argv)`` is a library call: whatever it ends with, exit code or
    argparse's SystemExit, the collector is on or off and frozen as before."""
    config = write_config()
    monkeypatch.setitem(ecoplan.cli._COMMANDS, "carbon", ("boom", _internal_error, ()))
    runs = {
        0: ["score", "--config", config, "--out", tmp_path / "ok"],
        1: ["partition", "--config", config, "--out", tmp_path / "bad", "--capacity", "-1"],
        2: ["score", "--config", tmp_path / "missing.json", "--out", tmp_path / "io"],
        3: ["carbon", "--config", config, "--out", tmp_path / "internal"],
    }
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        before = _collector_state()
        for code, argv in runs.items():
            assert run_cli(*argv) == code, capsys.readouterr().err
            assert _collector_state() == before, code
        for argv in (["nope"], ["score", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert _collector_state() == before, argv
    finally:
        gc.enable() if was_enabled else gc.disable()


OWNED_RUN = ("import gc, json, sys; from ecoplan.cli import main; "
             "assert gc.isenabled() and not gc.get_freeze_count(); code = main(); "
             "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))")


@pytest.mark.parametrize("capacity", ["1e9", "-1"], ids=["success", "validation-error"])
def test_main_run_as_the_program_collects_nothing_and_freezes_what_it_leaves(
    write_config, tmp_path, capacity
):
    """``main()`` reading ``sys.argv`` owns its process: collection stays off
    and the objects left are frozen, after a failing run too, which still
    reports its error, exits 1 and writes nothing."""
    config, out = write_config(), tmp_path / "out"
    env = dict(os.environ)
    src = str(Path(ecoplan.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", OWNED_RUN, "partition", "--config", str(config), "--out", str(out),
         "--capacity", capacity],
        env=env, capture_output=True, text=True, check=True)
    code, enabled, frozen = json.loads(child.stdout.splitlines()[-1])
    assert not enabled and frozen > 0
    if capacity == "-1":
        assert code == 1 and not out.exists()
        assert child.stderr.startswith("error: --capacity must be > 0"), child.stderr
    else:
        assert code == 0 and sorted(p.name for p in out.iterdir()) == [
            "partition.csv", "partition.json", "partition.md"]
