"""Repro-bundle schema, round trips, and replay semantics.

Schema, validation and I/O tests run over both bundle kinds (a matrix
cell and a litmus program): they share one core."""

import errno
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.policies import awg, baseline, named_policy
from repro.durability import vfs
from repro.errors import ConfigError
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE
from repro.faults.plan import named_plan
from repro.litmus.shrinklink import LitmusRequest
from repro.recovery.bundle import (
    BUNDLE_KEYS, BUNDLE_VERSION, KINDS, bundle_name, derive_expected,
    load_bundle, make_bundle, replay_bundle, validate_bundle, write_bundle,
)
from repro.workloads.litmus import get_litmus

FIXTURES = Path(__file__).resolve().parent.parent / "golden" / "bundles"


def _deadlock_request():
    scen = replace(QUICK_SCALE, fault_plan=named_plan("blackout", seed=3))
    return RunRequest("SPM_G", baseline(), scen, validate=False)


def _failure(kind="deadlock"):
    return {
        "type": "DeadlockError",
        "message": "watchdog",
        "traceback": "...",
        "classification": "deterministic",
        "cycle": 123,
        "diagnosis": {"kind": kind, "cycle": 123, "stalls": []},
    }


def _litmus_bundle():
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF_LOSS"), policy=baseline(), seed=1)
    return make_bundle(request,
                       expected={"mode": "model-violation", "model": "OBE"})


#: per kind: bundle factory, kind string, top-level keys, request keys,
#: file-name prefix
KIND_CASES = {
    "cell": (
        lambda: make_bundle(_deadlock_request(), failure=_failure()),
        "awg-repro-bundle",
        ["expected", "failure", "kind", "provenance", "request",
         "version"],
        ["benchmark", "config_overrides", "param_overrides", "policy",
         "scenario", "validate"],
        "SPM_G-Baseline-quick-diagnosis-",
    ),
    "litmus": (
        _litmus_bundle,
        "awg-repro-litmus-bundle",
        ["expected", "kind", "provenance", "request", "version"],
        ["policy", "program", "seed"],
        "litmus-LIT_HANDOFF_LOSS-Baseline-model-violation-",
    ),
}

by_kind = pytest.mark.parametrize("case", sorted(KIND_CASES))


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@by_kind
def test_bundle_schema_is_stable(case, tmp_path):
    """The bundle layout is a published interface (EXPERIMENTS.md):
    adding/removing top-level keys or changing the expected-mode
    vocabulary requires a BUNDLE_VERSION bump and doc updates."""
    make, kind, keys, request_keys, _ = KIND_CASES[case]
    bundle = make()
    assert sorted(bundle) == sorted(KINDS[kind].keys) == keys
    assert sorted(BUNDLE_KEYS) == KIND_CASES["cell"][2]
    assert bundle["version"] == BUNDLE_VERSION == 1
    assert bundle["kind"] == kind
    assert set(bundle["provenance"]) == {"fingerprint", "python",
                                         "created_at"}
    assert sorted(bundle["request"]) == request_keys
    # the whole document is JSON-serializable as-is, and the file on
    # disk is exactly that document
    document = json.loads(write_bundle(bundle, tmp_path).read_text())
    assert document == json.loads(json.dumps(bundle))


def test_bundle_request_spec_round_trips():
    req = _deadlock_request()
    bundle = make_bundle(req, failure=_failure())
    rebuilt = RunRequest.from_spec(bundle["request"])
    assert rebuilt.spec() == req.spec()
    assert rebuilt.policy == req.policy
    assert rebuilt.scenario == req.scenario


def test_derive_expected_modes():
    assert derive_expected(failure=_failure())["mode"] == "diagnosis"
    assert derive_expected(failure=_failure())["signature"] == \
        {"kind": "deadlock"}
    assert derive_expected(
        failure={"type": "CellTimeoutError", "message": ""}) == \
        {"mode": "timeout", "seconds": 60.0}
    assert derive_expected(
        failure={"type": "ValueError", "message": "boom"}) == \
        {"mode": "exception", "type": "ValueError"}
    with pytest.raises(ConfigError, match="expected"):
        derive_expected()


@by_kind
def test_validate_rejects_foreign_and_future_documents(case):
    make, kind, _, _, _ = KIND_CASES[case]
    bundle = make()
    validate_bundle(bundle)

    with pytest.raises(ConfigError, match="not a repro bundle"):
        validate_bundle({"kind": "something-else"})
    # the other kind's marker on this document: its keys do not fit
    other = next(k for k in KINDS if k != kind)
    with pytest.raises(ConfigError, match="request must carry"):
        validate_bundle({**bundle, "kind": other, "failure": None})
    with pytest.raises(ConfigError, match="version"):
        validate_bundle({**bundle, "version": BUNDLE_VERSION + 1})
    with pytest.raises(ConfigError, match="missing"):
        validate_bundle({k: v for k, v in bundle.items()
                         if k != "provenance"})
    with pytest.raises(ConfigError, match="mode"):
        validate_bundle({**bundle, "expected": {"mode": "sideways"}})
    with pytest.raises(ConfigError, match="JSON object"):
        validate_bundle([1, 2, 3])
    # each kind accepts only its own modes
    foreign_mode = {"cell": "model-violation", "litmus": "race"}[case]
    with pytest.raises(ConfigError, match="unknown expected-failure mode"):
        validate_bundle({**bundle, "expected": {"mode": foreign_mode}})
    if case == "litmus":
        with pytest.raises(ConfigError, match="must name model"):
            validate_bundle({**bundle,
                             "expected": {"mode": "model-violation"}})


@by_kind
def test_write_load_round_trip(case, tmp_path):
    make, kind, _, _, prefix = KIND_CASES[case]
    bundle = make()
    path = write_bundle(bundle, tmp_path)
    assert path.name == bundle_name(bundle)
    assert path.name.startswith(prefix)
    assert load_bundle(path) == bundle
    codec = KINDS[kind].hook("codec")
    assert codec.from_spec(bundle["request"]).spec() == bundle["request"]
    # deterministic name: rewriting the same bundle overwrites in place
    assert write_bundle(bundle, tmp_path) == path
    assert len(list(tmp_path.glob("*.json"))) == 1
    with pytest.raises(ConfigError, match="no bundle"):
        load_bundle(tmp_path / "missing.json")


@by_kind
def test_write_goes_through_the_vfs_gateway(case, tmp_path):
    """Every kind is written by the one core writer: an armed gateway
    records the atomic-write protocol, and an injected EIO surfaces
    after the bounded retries without leaving a temp file behind."""
    bundle = KIND_CASES[case][0]()
    with vfs.armed(tmp_path) as gateway:
        path = write_bundle(bundle, tmp_path)
    assert [(r.op, r.path) for r in gateway.log][-1] == (
        "rename", f".{path.name}.tmp")
    assert gateway.log[-1].dest == path.name

    dead_disk = vfs.DurabilityPlan(name="dead-disk", seed=1, eio_prob=1.0)
    out = tmp_path / "eio"
    with vfs.armed(tmp_path, plan=dead_disk):
        with pytest.raises(OSError) as exc:
            write_bundle(bundle, out)
    assert exc.value.errno == errno.EIO
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.name)
def test_committed_fixture_loads_names_and_replays(path, capsys):
    """Bundles written by an earlier build stay loadable, keep their
    content-derived file name, and still reproduce via the CLI."""
    bundle = load_bundle(path)
    assert validate_bundle(bundle) is bundle
    assert bundle_name(bundle) == path.name
    assert main(["replay", str(path)]) == 0
    assert "REPRODUCED" in capsys.readouterr().out


def test_committed_fixtures_cover_every_kind():
    kinds = {load_bundle(p)["kind"] for p in FIXTURES.glob("*.json")}
    assert kinds == set(KINDS)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_recorded_deadlock():
    req = _deadlock_request()
    result = req.execute()
    assert result.deadlocked
    bundle = make_bundle(req, result=result)
    report = replay_bundle(bundle)
    assert report["reproduced"]
    assert report["observed"]["mode"] == "diagnosis"
    assert report["observed"]["signature"] == \
        bundle["expected"]["signature"]
    # the replayed result payload is attached for post-mortems
    assert report["observed"]["result"]["deadlocked"] is True


def test_replay_detects_non_reproduction():
    """A bundle expecting a deadlock from a healthy cell must come back
    reproduced=False, not crash."""
    healthy = RunRequest("SPM_G", awg(), QUICK_SCALE)
    bundle = make_bundle(healthy, expected={
        "mode": "diagnosis", "signature": {"kind": "deadlock"}})
    report = replay_bundle(bundle)
    assert not report["reproduced"]
    assert report["observed"]["mode"] == "ok"


def test_replay_race_bundle_attaches_sanitizer():
    bundle = make_bundle(
        RunRequest("_RACY", named_policy("awg"), QUICK_SCALE,
                   validate=False),
        expected={"mode": "race"})
    report = replay_bundle(bundle)
    assert report["reproduced"]
    assert report["observed"]["race_count"] > 0


def test_replay_exception_bundle():
    """An exception-mode bundle reproduces iff the same exception type
    is raised again."""
    bad = RunRequest("SPM_G", awg(),
                     replace(QUICK_SCALE, total_wgs=0), validate=False)
    bundle = make_bundle(bad, failure={
        "type": "ConfigError", "message": "total_wgs", "traceback": "...",
        "classification": "deterministic",
    })
    report = replay_bundle(bundle)
    assert report["expected"] == {"mode": "exception", "type": "ConfigError"}
    assert report["reproduced"] == (report["observed"].get("type")
                                    == "ConfigError")
