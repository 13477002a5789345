"""Fabric-layer durability: skew-tolerant lease expiry, and the
exactly-once commit (the result cache's link commit) under injected
faults.

The regression this file pins down: lease expiry used to compare the
raw mtime age against the TTL, so coarse filesystem timestamps (1-2s
granularity on some NFS/FAT stacks) or clock skew between hosts could
get a LIVE lease stolen — the one protocol error that double-executes
a cell. Expiry now errs late by :func:`fabric_skew_slop`
(``REPRO_FABRIC_SKEW``).
"""

import os
import time

import pytest

from repro.durability import vfs
from repro.durability.vfs import armed, named_durability_plan
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.fabric.fleet import FabricDir, fabric_skew_slop

TTL = 10.0


def _fabric(tmp_path):
    fab = FabricDir(tmp_path / "fabric")
    fab.init()
    return fab


def _set_lease_age(fab, key, age):
    """Inject an mtime: make the lease look exactly ``age`` seconds old."""
    then = time.time() - age
    os.utime(fab.lease_path(key), times=(then, then))


# -- skew slop knob -----------------------------------------------------

def test_skew_slop_default_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_FABRIC_SKEW", raising=False)
    assert fabric_skew_slop() == 0.25
    monkeypatch.setenv("REPRO_FABRIC_SKEW", "2.5")
    assert fabric_skew_slop() == 2.5
    monkeypatch.setenv("REPRO_FABRIC_SKEW", "-1")
    assert fabric_skew_slop() == 0.0  # clamped, never negative
    monkeypatch.setenv("REPRO_FABRIC_SKEW", "soon")
    with pytest.raises(ConfigError):
        fabric_skew_slop()


# -- expiry under injected mtimes ---------------------------------------

def test_lease_expiry_tolerates_mtime_slop(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FABRIC_SKEW", raising=False)
    fab = _fabric(tmp_path)
    lease = fab.claim("cell-1", "w0", ttl=TTL)
    assert lease is not None
    try:
        # just past the TTL but within the slop: a live lease whose
        # heartbeat merely LOOKS old (coarse mtime) must not be stolen
        _set_lease_age(fab, "cell-1", TTL + 0.1)
        assert not fab.lease_expired("cell-1", TTL)
        # past TTL + slop: genuinely dead, steal away
        _set_lease_age(fab, "cell-1", TTL + 0.5)
        assert fab.lease_expired("cell-1", TTL)
    finally:
        lease.close()


def test_raised_skew_knob_widens_the_grace_window(tmp_path, monkeypatch):
    fab = _fabric(tmp_path)
    lease = fab.claim("cell-1", "w0", ttl=TTL)
    try:
        _set_lease_age(fab, "cell-1", TTL + 1.5)
        monkeypatch.setenv("REPRO_FABRIC_SKEW", "2.0")
        assert not fab.lease_expired("cell-1", TTL)
        monkeypatch.setenv("REPRO_FABRIC_SKEW", "1.0")
        assert fab.lease_expired("cell-1", TTL)
    finally:
        lease.close()


def test_skewed_clock_heartbeats_stay_within_the_slop(tmp_path):
    """Under the skewed-clock plan (1s skew, 2s granularity) a fresh
    heartbeat can look up to ~3s old; with a TTL comfortably above
    that, the default slop keeps the live lease unstolen."""
    fab = _fabric(tmp_path)
    plan = named_durability_plan("skewed-clock")
    with armed(tmp_path, plan=plan):
        lease = fab.claim("cell-1", "w0", ttl=6.0)
        assert lease is not None
        lease.heartbeat()
    try:
        age = fab.lease_age("cell-1")
        assert age is not None and age >= 0.5  # the skew is visible...
        assert not fab.lease_expired("cell-1", 6.0)  # ...but tolerated
    finally:
        lease.close()


# -- exactly-once commits under fault injection -------------------------

def test_commit_result_survives_flaky_disk_exactly_once(tmp_path):
    from repro.durability.harness import _sample_results

    cache = ResultCache(tmp_path / "cache", fingerprint="t")
    key = cache.key_for({"cell": "1"})
    result = _sample_results()["a"]
    plan = named_durability_plan("flaky-disk", seed=1)
    vfs.reset_stats()
    with armed(tmp_path, plan=plan):
        first = cache.put(key, result)
        second = cache.put(key, result)
    assert first is True
    assert second is False  # exactly once, even while the disk misfires
    assert cache.get(key) == result
    strays = [p for p in cache._path(key).parent.iterdir()
              if p.name.startswith(".")]
    assert strays == []  # no temp survives the retries
