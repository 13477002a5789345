"""Cache key stability and invalidation tests.

The content-addressed key must change when anything that can change the
simulation result changes — policy parameters, scenario fields, config
overrides, param overrides, or the code fingerprint — and must NOT
change for a respecified-but-identical cell.
"""

import dataclasses

import pytest

from repro.core.policies import awg, monnr_one, sleep
from repro.errors import ConfigError
from repro.experiments.cache import (
    ResultCache, cache_enabled, code_fingerprint, default_cache,
    default_cache_dir,
)
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE, RunResult

SCEN = QUICK_SCALE


def _key(cache, **overrides):
    base = dict(
        benchmark="SPM_G", policy=awg(), scenario=SCEN,
    )
    base.update(overrides)
    return cache.key_for(RunRequest(**base).spec())


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path, fingerprint="fp0")


def test_identical_specs_share_a_key(cache):
    assert _key(cache) == _key(cache)
    # a freshly constructed but equal policy/scenario hits the same key
    assert _key(cache, policy=awg()) == _key(cache, policy=awg())


def test_policy_params_change_key(cache):
    assert _key(cache, policy=awg()) != _key(cache, policy=monnr_one())
    assert _key(cache, policy=awg(straggler_timeout=20_000)) != \
        _key(cache, policy=awg(straggler_timeout=30_000))
    assert _key(cache, policy=sleep(16_000)) != \
        _key(cache, policy=sleep(16_000, backoff_min=128))


def test_scenario_fields_change_key(cache):
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(total_wgs=16))
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(seed=2))
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(resource_loss_at_us=5.0))


def test_overrides_change_key(cache):
    assert _key(cache) != \
        _key(cache, config_overrides={"syncmon_sets": 1})
    assert _key(cache, config_overrides={"syncmon_sets": 1}) != \
        _key(cache, config_overrides={"syncmon_sets": 2})
    assert _key(cache) != _key(cache, param_overrides={"iterations": 5})
    assert _key(cache) != _key(cache, validate=False)


def test_benchmark_changes_key(cache):
    assert _key(cache, benchmark="SPM_G") != _key(cache, benchmark="TB_LG")


def test_code_fingerprint_changes_key(tmp_path):
    a = ResultCache(tmp_path, fingerprint="fp0")
    b = ResultCache(tmp_path, fingerprint="fp1")
    assert _key(a) != _key(b)


def test_code_fingerprint_is_stable_and_nonempty():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def test_round_trip_preserves_every_field(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=12345, completed=True, deadlocked=False, reason="completed",
        atomics=678, waiting_atomics=90, context_switches=3,
        wg_running_cycles=1000, wg_waiting_cycles=250,
        stats={"l2.hit_rate": 0.123456789, "syncmon.spills": 4.0},
    )
    cache.put("k" * 64, result)
    loaded = cache.get("k" * 64)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(result)
    assert cache.hits == 1 and cache.stores == 1


def test_round_trip_preserves_trace_document(cache):
    """RunResult.trace (a whole Chrome-trace dict) survives the cache
    like ``diagnosis`` does, including the exact-count sidecar."""
    trace = {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "t"}},
            {"ph": "X", "name": "running", "cat": "wg", "ts": 0, "dur": 9,
             "pid": 1, "tid": 1, "args": {}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"label": "t", "clock": "c", "generator": "repro.trace"},
        "awg": {"recorded": 2, "dropped": 0, "counts": {"wg.running": 1},
                "counterPeaks": {}, "categories": ["wg"]},
    }
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=9, completed=True, deadlocked=False, reason="completed",
        atomics=1, waiting_atomics=0, context_switches=0,
        wg_running_cycles=9, wg_waiting_cycles=0,
        stats={"trace.events": 2.0}, trace=trace,
    )
    cache.put("t" * 64, result)
    loaded = cache.get("t" * 64)
    assert loaded.trace == trace
    from repro.trace.export import validate_chrome_trace
    assert validate_chrome_trace(loaded.trace) == []


def test_get_miss_and_corrupt_entry(cache, tmp_path):
    assert cache.get("0" * 64) is None
    assert cache.healed == 0  # a plain miss is not a heal
    path = tmp_path / "aa" / ("a" * 64 + ".json")
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get("a" * 64) is None
    assert cache.misses == 2
    assert cache.healed == 1  # ...but a corrupt entry is


def test_corrupt_entry_self_heals(cache):
    """A torn/truncated entry is deleted on read, so the cell
    re-simulates and overwrites it instead of failing every sweep."""
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    key = "e" * 64
    cache.put(key, result)
    path = cache._path(key)
    path.write_text(path.read_text()[:20])  # truncate: torn write
    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()  # deleted, not left to poison future reads
    cache.put(key, result)    # and the slot is immediately reusable
    assert cache.get(key).cycles == 1


def test_put_is_atomic_leaves_no_temp_files(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    key = "f" * 64
    cache.put(key, result)
    entries = list(cache._path(key).parent.iterdir())
    assert [p.name for p in entries] == [f"{key}.json"]


def test_diagnosis_survives_the_round_trip(cache):
    diagnosis = {"kind": "deadlock", "reason": "watchdog", "cycle": 42,
                 "stalls": [{"wg_id": 3, "state": "switched_out"}]}
    result = RunResult(
        benchmark="SPM_G", policy="Baseline", scenario="quick",
        cycles=42, completed=False, deadlocked=True, reason="watchdog",
        atomics=0, waiting_atomics=0, context_switches=1,
        wg_running_cycles=0, wg_waiting_cycles=0, diagnosis=diagnosis,
    )
    cache.put("9" * 64, result)
    assert cache.get("9" * 64).diagnosis == diagnosis


def test_put_refuses_gpu_handles(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0, gpu=object(),
    )
    with pytest.raises(ConfigError, match="GPU"):
        cache.put("b" * 64, result)


def test_clear_and_entry_count(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    cache.put("c" * 64, result)
    cache.put("d" * 64, result)
    assert cache.entry_count() == 2
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_env_opt_outs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    assert default_cache_dir() == tmp_path / "c"
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not cache_enabled()
    assert default_cache() is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    assert cache_enabled()
    assert default_cache().root == tmp_path / "c"


# ---------------------------------------------------------------------------
# integrity verification (`python -m repro cache --verify`)
# ---------------------------------------------------------------------------

def _simple_result(cycles=1):
    return RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=cycles, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )


def test_verify_clean_cache_is_clean(cache):
    cache.put("1" * 64, _simple_result())
    cache.put("2" * 64, _simple_result(cycles=2))
    report = cache.verify()
    assert report.clean
    assert report.checked == 2 and report.ok == 2
    assert "2 intact" in report.render()


def test_verify_quarantines_truncated_entry(cache):
    """A truncated (torn-write) entry fails the digest check, is moved
    into quarantine/, and the verify exit is dirty."""
    good, bad = "1" * 64, "2" * 64
    cache.put(good, _simple_result())
    cache.put(bad, _simple_result(cycles=9))
    path = cache._path(bad)
    path.write_text(path.read_text()[:40])  # truncate mid-document
    report = cache.verify(quarantine=True)
    assert not report.clean
    assert report.checked == 2 and report.ok == 1
    assert len(report.corrupt) == 1
    entry = report.corrupt[0]
    assert entry["path"] == str(path)
    assert not path.exists()  # moved out of the live cache...
    quarantined = cache.root / "quarantine" / path.name
    assert quarantined.exists()  # ...into quarantine for inspection
    assert entry["quarantined_to"] == str(quarantined)
    # the quarantined entry no longer counts as a live entry
    assert cache.entry_count() == 1
    # and a re-verify of the survivors is clean
    assert cache.verify().clean


def test_verify_detects_payload_tampering(cache):
    """Valid JSON whose payload no longer matches its recorded digest
    (bit rot, manual edits) is corrupt even though it parses."""
    import json

    key = "3" * 64
    cache.put(key, _simple_result(cycles=7))
    path = cache._path(key)
    document = json.loads(path.read_text())
    document["result"]["cycles"] = 999_999  # silent corruption
    path.write_text(json.dumps(document))
    report = cache.verify(quarantine=False)
    assert not report.clean
    assert "digest mismatch" in report.corrupt[0]["problem"]
    assert path.exists()  # quarantine=False only reports


def test_verify_flags_key_filename_mismatch(cache):
    key = "4" * 64
    cache.put(key, _simple_result())
    path = cache._path(key)
    misplaced = cache.root / "55" / ("5" * 64 + ".json")
    misplaced.parent.mkdir(parents=True, exist_ok=True)
    misplaced.write_text(path.read_text())
    report = cache.verify(quarantine=False)
    assert len(report.corrupt) == 1
    problems = {e["path"]: e["problem"] for e in report.corrupt}
    assert str(misplaced) in problems
    assert "does not match" in problems[str(misplaced)]


def test_verify_flags_pre_digest_entries(cache):
    """Entries written before digests existed can't prove integrity."""
    import json

    path = cache.root / "66" / ("6" * 64 + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {name: getattr(_simple_result(), name)
            for name in ("benchmark", "policy", "scenario", "cycles")}
    path.write_text(json.dumps({"result": body}))
    report = cache.verify(quarantine=False)
    assert not report.clean
    assert "pre-digest" in report.corrupt[0]["problem"]


# ---------------------------------------------------------------------------
# concurrent writers (the hard-link exactly-once commit)
# ---------------------------------------------------------------------------

_PUT_RIVAL = """\
import sys
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunResult

root, key = sys.argv[1], sys.argv[2]
result = RunResult(
    benchmark="SPM_G", policy="AWG", scenario="quick",
    cycles=7, completed=True, deadlocked=False, reason="completed",
    atomics=0, waiting_atomics=0, context_switches=0,
    wg_running_cycles=0, wg_waiting_cycles=0,
)
cache = ResultCache(root, fingerprint="fp0")
for _ in range(25):
    cache.put(key, result)
"""


def test_racing_puts_store_exactly_once(cache):
    """The link commit: of two writers racing one key exactly one
    stores, the loser counts as contended (its bytes never replace the
    winner's), and neither leaves a temp or claim file behind."""
    key = "a1" + "0" * 62
    rival = ResultCache(cache.root, fingerprint="fp0")
    assert cache.put(key, _simple_result(cycles=1)) is True
    assert rival.put(key, _simple_result(cycles=2)) is False
    assert (cache.stores, cache.contended) == (1, 0)
    assert (rival.stores, rival.contended) == (0, 1)
    assert rival.get(key).cycles == 1  # the first commit stands
    assert [p.name for p in cache._path(key).parent.iterdir()] == \
        [f"{key}.json"]


def test_put_skips_while_a_rival_holds_the_claim(cache):
    """The entry's name is the claim: while a rival's linked entry
    holds it, a put skips without touching the rival's bytes; once the
    entry is gone (healed or cleared) the next put stores."""
    key = "b2" + "0" * 62
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    ResultCache(cache.root, fingerprint="fp0").put(
        key, _simple_result(cycles=5))  # the rival commits first
    before = path.read_bytes()
    assert cache.put(key, _simple_result()) is False
    assert path.read_bytes() == before
    assert cache.contended == 1 and cache.stores == 0
    path.unlink()
    assert cache.put(key, _simple_result()) is True
    assert cache.get(key).cycles == 1
    assert cache.stores == 1


def test_concurrent_puts_leave_one_intact_entry(cache, tmp_path):
    """Multiprocess stress: rival writers hammering one key must end
    with exactly one intact entry and zero claim/temp residue."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    key = "c3" + "0" * 62
    rivals = [
        subprocess.Popen([sys.executable, "-c", _PUT_RIVAL,
                          str(cache.root), key], env=env)
        for _ in range(6)
    ]
    for proc in rivals:
        assert proc.wait(timeout=60) == 0
    assert cache.get(key).cycles == 7
    assert cache.verify().clean
    residue = [p.name for p in cache._path(key).parent.iterdir()
               if p.name != f"{key}.json"]
    assert residue == [], f"leftover claim/temp files: {residue}"


def test_cli_cache_verify_exits_nonzero_on_corruption(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache = ResultCache(tmp_path)
    key = cache.key_for({"benchmark": "SPM_G"})
    cache.put(key, _simple_result())
    assert main(["cache", "--verify"]) == 0
    path = cache._path(key)
    path.write_text(path.read_text()[:25])
    assert main(["cache", "--verify"]) == 1
    assert main(["cache", "--verify"]) == 0  # quarantined on first pass
