"""Litmus bundles: replay, program-level delta debugging, the oracle
hook, and the shared CLI entry points (schema, validation and file I/O
are covered for both bundle kinds in tests/recovery/test_bundle.py)."""

import pytest

from repro.cli import main
from repro.core.policies import awg, baseline
from repro.errors import ConfigError, ReproError
from repro.litmus.shrinklink import LitmusRequest, program_size
from repro.recovery.bundle import (
    LITMUS_BUNDLE_KIND, load_bundle, make_bundle, replay_bundle,
    write_bundle,
)
from repro.recovery.shrink import shrink_bundle
from repro.workloads.litmus import get_litmus


def violation_bundle():
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF_LOSS"), policy=baseline(), seed=1)
    return make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})


def test_replay_reproduces_model_violation():
    report = replay_bundle(violation_bundle())
    assert report["reproduced"]
    assert report["observed"]["verdict"] == "violated"


def test_replay_detects_fixed_violation():
    # The same program under AWG completes: the recorded OBE violation
    # must NOT reproduce.
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF_LOSS"), policy=awg(), seed=1)
    bundle = make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})
    report = replay_bundle(bundle)
    assert not report["reproduced"]


def test_shrink_preserves_violation_and_reduces_size():
    bundle = violation_bundle()
    original = LitmusRequest.from_spec(bundle["request"]).program
    result = shrink_bundle(bundle, max_trials=60)
    minimal = LitmusRequest.from_spec(result.minimal["request"]).program
    assert result.shrunk
    assert program_size(minimal) < program_size(original)
    assert minimal.wgs < original.wgs
    assert replay_bundle(result.minimal)["reproduced"]
    assert result.minimal["kind"] == LITMUS_BUNDLE_KIND
    assert "failure" not in result.minimal
    # the log records every trial with its accept/reject decision
    assert result.log and all(
        {"step", "dimension", "accepted", "size"} <= set(e)
        for e in result.log)


def test_shrink_is_deterministic():
    a = shrink_bundle(violation_bundle(), max_trials=40)
    b = shrink_bundle(violation_bundle(), max_trials=40)
    assert a.minimal["request"] == b.minimal["request"]
    assert a.log == b.log


def test_shrink_refuses_non_reproducing_bundle():
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF"), policy=awg(), seed=1)
    bundle = make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})
    with pytest.raises(ReproError):
        shrink_bundle(bundle)


def test_emit_violation_bundles_for_contract_breaks(tmp_path, monkeypatch):
    # Forge a report whose single run claims MUST_COMPLETE but hung,
    # and check a bundle lands on disk for it.
    from repro.litmus.oracle import run_litmus
    from repro.litmus.shrinklink import emit_violation_bundles

    run = run_litmus(get_litmus("LIT_HANDOFF_LOSS"), baseline())
    assert not run.outcome.ok
    forged = run.__class__(**{**run.__dict__, "expected": "MUST_COMPLETE"})
    assert forged.contract_violation

    class FakeReport:
        def violating_runs(self):
            return [forged]

    paths = emit_violation_bundles(FakeReport(), tmp_path, seed=1)
    assert len(paths) == 1
    loaded = load_bundle(paths[0])
    assert loaded["expected"]["mode"] == "contract"


# ---------------------------------------------------------------------------
# CLI: the top-level replay/shrink commands take litmus bundles
# ---------------------------------------------------------------------------

def test_cli_replays_and_shrinks_a_litmus_bundle(tmp_path, capsys):
    path = write_bundle(violation_bundle(), tmp_path)
    assert main(["replay", str(path)]) == 0
    out = capsys.readouterr().out
    assert "replaying litmus-LIT_HANDOFF_LOSS-Baseline" in out
    assert "REPRODUCED" in out

    assert main(["shrink", str(path), "--out", str(tmp_path / "min")]) == 0
    minimal = next((tmp_path / "min").glob("*.json"))
    assert replay_bundle(load_bundle(minimal))["reproduced"]


def test_cli_rejects_trace_on_a_litmus_bundle(tmp_path, capsys):
    path = write_bundle(violation_bundle(), tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["replay", str(path), "--trace"])
    assert exc.value.code == 2
    assert "litmus bundle" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="trace"):
        replay_bundle(violation_bundle(), trace=True)


@pytest.mark.parametrize("sub", ["replay", "shrink"])
def test_cli_litmus_subcommands_are_gone(sub, tmp_path, capsys):
    path = write_bundle(violation_bundle(), tmp_path)
    with pytest.raises(SystemExit):
        main(["litmus", sub, str(path)])
    assert "top-level replay/shrink" in capsys.readouterr().err
