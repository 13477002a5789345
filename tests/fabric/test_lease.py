"""Unit tests of the fabric's on-disk lease protocol.

The invariants drilled here are what the chaos drill relies on end to
end: exactly-one claim winner, ownership-checked release, mtime-driven
expiry immune to a stolen lease's stale heartbeats, the sweep version
gate and the stop file. The commit itself is the result cache's link
commit (tests/experiments/test_cache.py).
"""

import json
import os
import time

from repro.core.policies import awg
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import EXEC_LOG_ENV, RunRequest
from repro.experiments.runner import QUICK_SCALE, RunResult
from repro.fabric import fleet
from repro.fabric.fleet import LEASE_VERSION, FabricDir, Worker


def _dir(tmp_path) -> FabricDir:
    fabric = FabricDir(tmp_path / "fab")
    fabric.init()
    return fabric


def _age_lease(fabric, key, seconds):
    """Backdate a lease's mtime (simulates a silent worker)."""
    path = fabric.lease_path(key)
    past = time.time() - seconds
    os.utime(path, (past, past))


# -- claims -----------------------------------------------------------

def test_claim_has_exactly_one_winner(tmp_path):
    fabric = _dir(tmp_path)
    first = fabric.claim("cell", "w0", ttl=5.0)
    assert first is not None
    assert fabric.claim("cell", "w1", ttl=5.0) is None
    record = fabric.read_lease("cell")
    assert record["version"] == LEASE_VERSION
    assert record["worker"] == "w0"
    assert record["token"] == first.token
    assert fabric.owns(first)
    first.close()


def test_release_removes_only_owned_leases(tmp_path):
    fabric = _dir(tmp_path)
    lease = fabric.claim("cell", "w0", ttl=5.0)
    assert fabric.release(lease) is True
    assert fabric.read_lease("cell") is None
    # stolen and re-claimed: the old owner must NOT unlink the new
    # owner's lease
    old = fabric.claim("cell", "w0", ttl=5.0)
    assert fabric.steal("cell")
    fresh = fabric.claim("cell", "w1", ttl=5.0)
    assert not fabric.owns(old)
    assert fabric.release(old) is False
    assert fabric.read_lease("cell")["worker"] == "w1"
    fresh.close()


def test_stale_heartbeat_cannot_refresh_a_stolen_lease(tmp_path):
    """The heartbeat goes through the claim fd; after a steal that fd
    points at the orphaned inode, so the thief's fresh lease file keeps
    its own mtime."""
    fabric = _dir(tmp_path)
    old = fabric.claim("cell", "w0", ttl=5.0)
    assert fabric.steal("cell")
    fresh = fabric.claim("cell", "w1", ttl=5.0)
    _age_lease(fabric, "cell", 100.0)
    before = fabric.lease_age("cell")
    old.heartbeat()  # stalled worker wakes up and heartbeats blindly
    assert fabric.lease_age("cell") >= before - 1.0  # not refreshed
    old.close()
    fresh.close()


def test_expiry_is_mtime_driven_and_prefers_the_record_ttl(tmp_path):
    fabric = _dir(tmp_path)
    lease = fabric.claim("cell", "w0", ttl=5.0)
    assert not fabric.lease_expired("cell", default_ttl=5.0)
    _age_lease(fabric, "cell", 10.0)
    assert fabric.lease_expired("cell", default_ttl=5.0)
    lease.close()
    fabric.steal("cell")
    # the record's own ttl wins over the caller's default
    tight = fabric.claim("cell", "w0", ttl=0.5)
    _age_lease(fabric, "cell", 2.0)
    assert fabric.lease_expired("cell", default_ttl=100.0)
    tight.close()


def test_torn_lease_record_names_no_owner_but_still_expires(tmp_path):
    fabric = _dir(tmp_path)
    fabric.lease_path("cell").write_text('{"version": 1, "worker": "w')
    assert fabric.read_lease("cell") is None  # torn: skipped
    assert fabric.lease_age("cell") is not None  # but it holds the cell
    _age_lease(fabric, "cell", 10.0)
    assert fabric.lease_expired("cell", default_ttl=5.0)
    assert fabric.steal("cell")


def test_foreign_version_lease_is_ignored(tmp_path):
    fabric = _dir(tmp_path)
    fabric.lease_path("cell").write_text(
        json.dumps({"version": LEASE_VERSION + 1, "worker": "w9"}))
    assert fabric.read_lease("cell") is None


# -- commit -----------------------------------------------------------

def _result(cycles):
    return RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=cycles, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )


def test_commit_result_is_exactly_once(tmp_path, monkeypatch):
    """A worker's commit is the result cache's link commit: a second
    worker that re-executes a cell already committed (its first owner
    died after the link, before the release) cannot replace the first
    result, logs no second commit and leaves no residue."""
    fabric = _dir(tmp_path)
    outcomes = iter([_result(123), _result(456)])
    monkeypatch.setattr(fleet, "execute_cell",
                        lambda request, timeout: (next(outcomes), None))
    exec_log = tmp_path / "exec.log"
    monkeypatch.setenv(EXEC_LOG_ENV, str(exec_log))
    spec = RunRequest(benchmark="SPM_G", policy=awg(),
                      scenario=QUICK_SCALE).spec()
    cache_key = "d4" + "0" * 62
    workers = []
    for name in ("w0", "w1"):
        worker = Worker(fabric.root, name)
        worker.cache = ResultCache(tmp_path / "cache", fingerprint="fp0")
        worker.ttl, worker.cell_timeout = 5.0, None
        worker.run_cell(fabric.claim("cell", name, ttl=5.0), cache_key,
                        spec)
        workers.append(worker)
    first, second = workers
    assert (first.cache.stores, first.cache.contended) == (1, 0)
    assert (second.cache.stores, second.cache.contended) == (0, 1)
    reader = ResultCache(tmp_path / "cache", fingerprint="fp0")
    assert reader.get(cache_key, verify=True).cycles == 123
    assert [line.split("\t")[:3] for line in
            exec_log.read_text().splitlines()] == [["commit", "cell", "w0"]]
    assert [p.name for p in reader._path(cache_key).parent.iterdir()] == \
        [f"{cache_key}.json"]
    assert fabric.read_lease("cell") is None
    assert fabric.read_failure("cell") is None


# -- failures ---------------------------------------------------------

def test_failure_settles_deterministic_immediately(tmp_path):
    fabric = _dir(tmp_path)
    fabric.record_failure("cell", {"classification": "deterministic"})
    assert fabric.failure_settled("cell", retries=99)


def test_environmental_failure_settles_after_retries(tmp_path):
    fabric = _dir(tmp_path)
    for attempt in (1, 2):
        assert fabric.record_failure(
            "cell", {"classification": "environmental"}) == attempt
        assert not fabric.failure_settled("cell", retries=2)
    fabric.record_failure("cell", {"classification": "environmental"})
    assert fabric.failure_settled("cell", retries=2)


# -- sweep / stop -----------------------------------------------------

def test_sweep_document_roundtrip_and_version_gate(tmp_path):
    fabric = _dir(tmp_path)
    fabric.publish_sweep({"cells": [], "fingerprint": "fp"})
    assert fabric.read_sweep()["fingerprint"] == "fp"
    fabric.sweep_path.write_text(json.dumps({"version": 999}))
    assert fabric.read_sweep() is None


def test_stop_file_lifecycle(tmp_path):
    fabric = _dir(tmp_path)
    assert fabric.stopped() is None
    fabric.write_stop("sweep settled")
    assert fabric.stopped() == "sweep settled"
    fabric.clear_stop()
    assert fabric.stopped() is None
