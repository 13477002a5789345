"""The fault campaign: the IFP contract checked end to end."""

import json
from pathlib import Path

import pytest

from repro.core.policies import awg, baseline
from repro.experiments import faults_campaign
from repro.durability import vfs
from repro.experiments.faults_campaign import (
    SMOKE_SCALE, CampaignResult, _emit_violation_bundles, _expectation,
)
from repro.experiments.matrix import RunRequest
from repro.faults.plan import named_plan
from repro.recovery.bundle import load_bundle, replay_bundle


@pytest.fixture(scope="module")
def small_campaign():
    return faults_campaign.run(
        seed=1, smoke=True,
        benchmarks=["SPM_G"],
        policies=[baseline(), awg()],
        plans=[named_plan("calm"), named_plan("blackout")],
        jobs=1, cache=None,
    )


def test_contract_holds(small_campaign):
    assert isinstance(small_campaign, CampaignResult)
    assert small_campaign.ok
    assert small_campaign.violations == []


def test_table_shows_cycles_and_failure_modes(small_campaign):
    text = small_campaign.render()
    assert "SPM_G × calm" in text
    assert "SPM_G × blackout" in text
    assert "DEADLOCK" in text          # Baseline under blackout
    assert "IFP contract held" in text


def test_matrix_cells_follow_the_expectation(small_campaign):
    matrix = small_campaign.matrix
    # order: plan -> bench -> policy, i.e. (calm: Baseline, AWG),
    # (blackout: Baseline, AWG)
    assert matrix[0].ok                 # Baseline, no faults
    assert matrix[1].ok                 # AWG, no faults
    assert matrix[2].deadlocked         # Baseline loses a CU for good
    assert matrix[2].diagnosis is not None
    assert matrix[3].ok                 # AWG restores the evicted WGs


def test_campaign_is_deterministic():
    kwargs = dict(seed=1, smoke=True, benchmarks=["SPM_G"],
                  policies=[awg()], plans=[named_plan("storm")],
                  jobs=1, cache=None)
    a = faults_campaign.run(**kwargs)
    b = faults_campaign.run(**kwargs)
    assert a.render() == b.render()


def test_violating_cells_emit_replayable_shrunk_bundles(tmp_path):
    """`faults --bundles DIR --shrink`: every replayable violation
    lands as a bundle plus its minimized twin and shrink log."""
    # total_wgs=0 makes every cell raise ConfigError — a deterministic
    # "cell failed" violation with a replayable exception bundle
    result = faults_campaign.run(
        seed=1, benchmarks=["SPM_G"], policies=[awg()],
        plans=[named_plan("calm", seed=1)],
        scenario=SMOKE_SCALE.scaled(total_wgs=0),
        jobs=1, cache=None, bundle_dir=tmp_path, shrink=True)
    assert not result.ok
    assert result.bundles, "a violating cell must emit a bundle"
    assert f"repro-bundle file(s) to {tmp_path}" in result.render()

    bundle_path = Path(result.bundles[0])
    bundle = load_bundle(bundle_path)
    assert bundle["expected"]["mode"] == "exception"
    assert bundle["failure"]["classification"] == "deterministic"
    assert replay_bundle(bundle)["reproduced"]

    log_path = Path(str(bundle_path).replace(".json", ".shrinklog.json"))
    assert str(log_path) in result.bundles
    log = json.loads(log_path.read_text())
    assert log["source"] == str(bundle_path)
    assert log["final_size"] < log["initial_size"]
    assert replay_bundle(load_bundle(log["minimal"]))["reproduced"]


def test_shrink_log_is_written_through_vfs_and_points_at_minimal(tmp_path):
    """Regression: the shrink log records where the content-named
    minimal bundle went, and both go through the durability gateway."""
    request = RunRequest("SPM_G", awg(), SMOKE_SCALE.scaled(total_wgs=0),
                         validate=False)
    failure = {"type": "ConfigError", "message": "total_wgs",
               "classification": "deterministic"}
    cell = type("Cell", (), {"result": None, "failure": failure})()
    with vfs.armed(tmp_path) as gateway:
        paths = _emit_violation_bundles(tmp_path, [(request, cell)], True)
    bundle_path, log_path = map(Path, paths)
    assert log_path.name == bundle_path.stem + ".shrinklog.json"
    renamed = {r.dest for r in gateway.log if r.op == "rename"}
    assert log_path.name in renamed
    log = json.loads(log_path.read_text())
    minimal = Path(log["minimal"])
    assert minimal.name in renamed and minimal != bundle_path
    assert not list(tmp_path.glob("*.min.json"))
    bundle = load_bundle(minimal)
    assert bundle["request"] != load_bundle(bundle_path)["request"]
    assert replay_bundle(bundle)["reproduced"]


def test_expectation_table():
    assert _expectation(awg(), named_plan("blackout")) == "complete"
    assert _expectation(baseline(), named_plan("blackout")) == "deadlock"
    assert _expectation(baseline(), named_plan("calm")) == "complete"
    assert _expectation(baseline(), named_plan("notify-loss")) == "complete"
