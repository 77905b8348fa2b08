from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecoplan
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


class TestConfigStrictness:
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
            ("score", lambda raw: raw.update(dataset=5), "dataset must be a string"),
            ("score", lambda raw: raw.update(output_dir=5), "output_dir must be a string"),
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
             "block-region-int"],
    )
    def test_malformed_section_is_validation_error(
        self, write_config, tmp_path, capsys, command, mutate, section
    ):
        config = write_config(mutate)
        out = tmp_path / "o"
        assert run_cli(command, "--config", config, "--out", out) == 1
        assert section in capsys.readouterr().err
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
