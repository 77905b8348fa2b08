from __future__ import annotations

import json

import pytest
from hypothesis import settings

from ecoplan import ScoreWeights, load_dataset
from ecoplan.aging import SlackCurve
from ecoplan.fixtures import fixture_path

# more draws for the encoder's stdlib-parity properties: --hypothesis-profile=encoder
settings.register_profile("encoder", max_examples=1000)


@pytest.fixture(scope="session")
def six_ip_dataset():
    return load_dataset(fixture_path("six_ip_soc.json"))


@pytest.fixture(scope="session")
def default_weights():
    return ScoreWeights.default()


@pytest.fixture(scope="session")
def demo_config_path():
    return fixture_path("demo_config.json")


@pytest.fixture(scope="session")
def demo_config(demo_config_path):
    return json.loads(demo_config_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo_curves(demo_config):
    return {
        platform: SlackCurve(platform=platform, points=tuple(map(tuple, points)))
        for platform, points in demo_config["aging"]["curves"].items()
    }


# --- acceptance criterion summary -------------------------------------------

_ACCEPTANCE: dict[str, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    cid, title = marker.args
    entry = _ACCEPTANCE.setdefault(
        cid, {"title": title, "passed": 0, "failed": 0, "xfailed": 0}
    )
    if hasattr(report, "wasxfail") and report.skipped:
        entry["xfailed"] += 1
    elif report.passed:
        entry["passed"] += 1
    else:
        entry["failed"] += 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for cid in sorted(_ACCEPTANCE):
        entry = _ACCEPTANCE[cid]
        status = "FAIL" if entry["failed"] else "PASS"
        note = (
            f" ({entry['xfailed']} known reference divergence, xfailed)"
            if entry["xfailed"]
            else ""
        )
        terminalreporter.write_line(
            f"{cid} {entry['title']}: {status} [{entry['passed']} checks]{note}"
        )
