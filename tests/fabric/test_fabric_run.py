"""End-to-end fabric sweeps: bit-identity, resume, failure settling.

These run a real worker fleet (subprocesses) over a tiny scaled-down
scenario, so each sweep costs ~1s; the heavyweight fault-injection
coverage lives in the chaos drill (test_chaos_drill.py).
"""

import json

import pytest

from repro.core.policies import named_policy
from repro.errors import ConfigError
from repro.experiments.cache import RESULT_FIELDS, result_to_payload
from repro.experiments.matrix import CellError, RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE
from repro.fabric.fleet import (
    EXIT_FINGERPRINT, EXIT_OK, Coordinator, FabricDir, Worker, run_fabric,
)
from repro.recovery.manifest import SweepCheckpoint, cell_key

SCENARIO = QUICK_SCALE.scaled(label="fabric-test", iterations=4,
                              episodes=16)


def _request(benchmark, policy="awg"):
    return RunRequest(benchmark, named_policy(policy), SCENARIO,
                      validate=False)


def _fields(result):
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def test_fabric_sweep_matches_single_process_run(tmp_path):
    requests = [_request("SPM_G"), _request("FAM_G"), _request("TB_LG")]
    baseline = run_matrix(requests, jobs=1, cache=None, checkpoint=False)

    outcome = run_fabric(
        requests, workers=2, ttl=2.0,
        checkpoint_root=tmp_path / "ckpt", fabric_root=tmp_path / "fab",
        cache=None, trace=True,
    )
    assert outcome.ok, outcome.errors
    assert len(outcome) == len(requests)
    for index in range(len(requests)):
        assert _fields(outcome[index]) == _fields(baseline[index]), \
            f"cell {index} diverged from the single-process run"
    assert outcome.stats["fabric.cells.committed"] == len(requests)
    assert outcome.stats["fabric.lease.granted"] == len(requests)
    # a clean sweep's manifest is deleted (nothing left to resume)
    assert not any((tmp_path / "ckpt").glob("*.json"))
    # fleet events surface in the exported Chrome trace
    names = {e.get("name") for e in outcome.trace["traceEvents"]}
    assert {"sweep.start", "lease.grant", "cell.commit",
            "sweep.done"} <= names
    assert "completed" in outcome.summary()


def test_fabric_resume_never_reexecutes_completed_cells(
        tmp_path, monkeypatch):
    requests = [_request("SPM_G"), _request("SLM_G")]
    specs = [req.spec() for req in requests]
    done = run_matrix(requests[:1], jobs=1, cache=None, checkpoint=False)

    # a previous (crashed) coordinator checkpointed the first cell
    ckpt = SweepCheckpoint.open(specs, root=tmp_path / "ckpt")
    first_key = ckpt.keys[0]
    ckpt.record(first_key, done[0])
    ckpt.flush(force=True)

    exec_log = tmp_path / "exec.log"
    monkeypatch.setenv("REPRO_EXEC_LOG", str(exec_log))
    outcome = run_fabric(
        requests, workers=2, ttl=2.0,
        checkpoint_root=tmp_path / "ckpt", fabric_root=tmp_path / "fab",
        cache=None, trace=False,
    )
    assert outcome.ok, outcome.errors
    assert outcome.resumed == 1
    assert _fields(outcome[0]) == _fields(done[0])
    lines = [line.split("\t") for line in exec_log.read_text().splitlines()]
    executed = [fields[0] for fields in lines if fields[0] != "commit"]
    assert executed == ["SLM_G"], \
        "the checkpointed cell must never re-execute"
    # the worker's commit line names the one cell it committed
    committed = [fields[1] for fields in lines if fields[0] == "commit"]
    assert committed == [cell_key(specs[1])]


def test_deterministic_failure_settles_without_retry(tmp_path):
    requests = [_request("SPM_G"),
                RunRequest("NO_SUCH_BENCH", named_policy("awg"),
                           SCENARIO, validate=False)]
    outcome = run_fabric(
        requests, workers=2, ttl=2.0, retries=5,
        checkpoint_root=tmp_path / "ckpt", fabric_root=tmp_path / "fab",
        cache=None, trace=False,
    )
    assert not outcome.ok
    assert len(outcome.errors) == 1
    assert outcome[0].benchmark == "SPM_G"
    with pytest.raises(CellError):
        outcome[1]
    failure = outcome.cells[1].failure
    assert failure["classification"] == "deterministic"
    # deterministic failures settle on the first attempt even with a
    # generous retry budget (same rule as run_matrix)
    assert outcome.stats["fabric.cells.failed_attempts"] == 1
    # a partial sweep leaves its manifest behind for resume
    assert list((tmp_path / "ckpt").glob("*.json"))


def test_keep_gpu_cells_are_rejected(tmp_path):
    request = RunRequest("SPM_G", named_policy("awg"), SCENARIO,
                         validate=False, keep_gpu=True)
    with pytest.raises(ConfigError, match="keep_gpu"):
        run_fabric([request], workers=1,
                   checkpoint_root=tmp_path / "ckpt",
                   fabric_root=tmp_path / "fab", cache=None, trace=False)


def test_worker_refuses_a_foreign_fingerprint(tmp_path):
    fabric = FabricDir(tmp_path / "fab")
    fabric.init()
    fabric.publish_sweep({
        "fingerprint": "someone-elses-build",
        "cells": [{"key": "k", "spec": {}}],
        "ttl": 1.0,
    })
    worker = Worker(tmp_path / "fab", "w0")
    assert worker.load_sweep() == EXIT_FINGERPRINT


def test_worker_exits_cleanly_on_stop_before_sweep(tmp_path):
    fabric = FabricDir(tmp_path / "fab")
    fabric.init()
    fabric.write_stop("aborted before publish")
    worker = Worker(tmp_path / "fab", "w0")
    assert worker.load_sweep() == EXIT_OK


def test_corrupt_commit_is_never_recorded(tmp_path):
    coordinator = Coordinator(
        [_request("SPM_G")],
        checkpoint_root=tmp_path / "ckpt", fabric_root=tmp_path / "fab",
        cache=None, trace=False,
    )
    coordinator.prepare()
    key = coordinator.keys[0]
    # a well-formed entry whose payload no longer matches its digest
    # (bit rot, or a writer that bypassed the link commit)
    entry = coordinator.cache._path(coordinator.cache_keys[key])
    entry.parent.mkdir(parents=True, exist_ok=True)
    payload = result_to_payload(
        run_matrix([_request("SPM_G")], jobs=1, cache=None)[0])
    entry.write_text(json.dumps({"result": payload, "key": entry.stem,
                                 "digest": "0" * 64}))
    assert not coordinator.poll()
    assert key not in coordinator.ckpt.completed
    assert "fabric.cells.committed" not in coordinator.stats
    # the bad entry healed to a miss: the cell is open for a re-run
    assert not entry.exists()
    assert coordinator.cache.healed == 1
