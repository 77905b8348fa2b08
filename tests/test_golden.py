"""Golden report bytes for the bundled demo configuration.

Every file a subcommand writes for the demo config is pinned by its sha256,
so any change to report content, number formatting or file naming fails
here. Each JSON report must first be the stdlib's ``indent=2``, ``sort_keys``
dump of what it holds, so a digest that moves for a layout fault says so. A
run that asks for one format (``--formats json``, ``csv`` or ``markdown``)
must write only that file, with the same bytes as the full run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ecoplan.cli import main
from ecoplan.fixtures import fixture_path
from ecoplan.report import FORMATS, output_name

GOLDEN = {
    "score": (("score",), {
        "score.csv": "e13ee447243caaa11764357c84d29b0588031e4886c0500d42d960f63aa5752d",
        "score.json": "3ac390fe589da9b1cf9d09c075082531c6a99e42278fd82276ac8391d14bbff5",
        "score.md": "e2e5a87c036698f28251abdcd5195bbbd59aac23405aa08a9a8c6d2426b36a90",
    }),
    "partition-greedy": (("partition", "--method", "greedy"), {
        "partition.csv": "a91f49930bf4098212baccc8fdfcbb999b19d2ad9e060289fad2c0bcafed8b34",
        "partition.json": "5738d0e822d442225f3bb0619047920facd7727f7b186630e79062f03373d19e",
        "partition.md": "55b7f0d56f4553519a718279d57fb0c4eaa577c014f2ea1541249e7338911159",
    }),
    "partition-exact": (("partition", "--method", "exact"), {
        "partition.csv": "a91f49930bf4098212baccc8fdfcbb999b19d2ad9e060289fad2c0bcafed8b34",
        "partition.json": "0d85fdef2836443f791a2c2b4da3925712c2a16d4367cc6efdf1a8812d234faa",
        "partition.md": "2ab5d6742b930be85c70cce8c29bcddcffb8a42bead0d7a40c5cb3842c70972d",
    }),
    "carbon": (("carbon",), {
        "carbon.csv": "1d4724f380d328430802c2b79eb05aa4e0541c20a62618ce864fd49a947b78a6",
        "carbon.json": "0600f7101b7c613616f713cc49ec7e79e01c744fe19c73820e45a6117459f6d1",
        "carbon.md": "8dc9ac9a28f760bedd89e86ea60e962026d8a987306fc340011ecdfaf8f5eaf0",
    }),
    "compare": (("compare",), {
        "compare.csv": "74e31a93a01cfe6122647ee574821c3de0cb541f60dffdeab3317994e0a2062f",
        "compare.json": "eb3c52c55dcb2b9634c026427195bcc05a9a38c3e8005e340c4a3b5a4ddc5c91",
        "compare.md": "29ca333037a371ae5c239ae7ac44f9bbaf278d5a7913a4fffca2d3c2d576cb54",
    }),
    # the demo config evaluates at 130 degC and carries regions and blocks, so
    # this run includes the remap
    "aging-130-remap": (("aging",), {
        "aging.csv": "fa8e0c14889f0379a02580ff0d606a78c75b0ac53189d624d842d1ebb39a7d69",
        "aging.json": "641cfeb3beaabf1f1bfb13ffff8a5e6425f6cce55feb1f32ccf9356862c2a42e",
        "aging.md": "c7a260364dc6e64eb00d3dde0f888c32f1a544a8b0964a3dc915d51038c9629c",
    }),
    "aging-60": (("aging", "--temperature", "60"), {
        "aging.csv": "f50f4da49bb948117c53955ed4cd2b54f18d231162df016519c760c508a2c5ae",
        "aging.json": "12e247fe757f40ab31ff7c23f47a8a6d38f7ca5e4c0417e9de55ddf6e4bc0163",
        "aging.md": "5d77bffcc6689635ba68387cfb6a692e0dbfbb569d5133f38e2340e2cc1c7122",
    }),
}


def run_demo(argv, out, *extra) -> dict[str, bytes]:
    config = fixture_path("demo_config.json")
    assert main([*argv, "--config", str(config), "--out", str(out), *extra]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_demo_report_bytes_are_pinned(tmp_path, run):
    argv, digests = GOLDEN[run]
    files = run_demo(argv, tmp_path / "out")
    for name, data in files.items():
        if name.endswith(".json"):
            text = data.decode("utf-8")
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, name
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == digests


# each golden run with each single format; a markdown case is named by its run alone
SINGLE_FORMAT_RUNS = [
    pytest.param(run, only, id=run if only == "markdown" else f"{run}-{only}")
    for run in sorted(GOLDEN) for only in FORMATS
]


@pytest.mark.parametrize(("run", "only"), SINGLE_FORMAT_RUNS)
def test_markdown_only_run_writes_the_same_markdown(tmp_path, run, only):
    argv, _ = GOLDEN[run]
    full = run_demo(argv, tmp_path / "full")
    single = run_demo(argv, tmp_path / only, "--formats", only)
    name = output_name(argv[0], only)
    assert single == {name: full[name]}
