"""Tests for the parallel experiment-matrix runner."""

import dataclasses

import pytest

from repro.core.policies import awg, baseline, monnr_all
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import (
    CellError, RunRequest, resolve_jobs, run_matrix,
)
from repro.experiments.runner import QUICK_SCALE

#: tiny cells so the matrix tests stay fast
SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


def _result_fields(res):
    """Every RunResult field except the (never pooled) gpu handle."""
    return {
        f.name: getattr(res, f.name)
        for f in dataclasses.fields(res) if f.name != "gpu"
    }


def test_results_in_request_order():
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("TB_LG", awg(), SCEN),
        RunRequest("SPM_G", monnr_all(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert [r.benchmark for r in matrix] == ["SPM_G", "TB_LG", "SPM_G"]
    assert [r.policy for r in matrix] == ["AWG", "AWG", "MonNR-All"]
    assert matrix.get("TB_LG", "AWG").cycles > 0


def test_jobs_1_and_jobs_4_bit_identical():
    """Determinism: the same seeded cells produce bit-identical RunResult
    fields in-process and across the process pool."""
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("TB_LG", monnr_all(), SCEN),
        RunRequest("FAM_G", baseline(), SCEN),
    ]
    serial = run_matrix(requests, jobs=1, cache=None)
    pooled = run_matrix(requests, jobs=4, cache=None)
    for a, b in zip(serial, pooled):
        assert _result_fields(a) == _result_fields(b)


def test_cache_round_trip_returns_equal_result(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="test")
    requests = [RunRequest("SPM_G", awg(), SCEN)]
    cold = run_matrix(requests, jobs=1, cache=cache)
    assert (cold.cache_hits, cold.cache_misses) == (0, 1)
    assert cold.summary().startswith(
        "matrix: 1 cells, 1 executed, 0 failed, 0 cache hits, 1 misses")
    warm = run_matrix(requests, jobs=1, cache=cache)
    assert (warm.cache_hits, warm.cache_misses) == (1, 0)
    assert warm.executed == 0
    assert "1 cells, 0 executed, 0 failed, 1 cache hits" in warm.summary()
    assert warm.cells[0].from_cache
    assert _result_fields(cold[0]) == _result_fields(warm[0])


def test_identical_cells_deduplicated():
    requests = [RunRequest("SPM_G", awg(), SCEN)] * 3
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert matrix.deduped == 2
    assert len(matrix) == 3
    assert matrix[0].cycles == matrix[1].cycles == matrix[2].cycles
    # deduplicated copies own their stats dict
    matrix[1].stats["probe"] = 1.0
    assert "probe" not in matrix[2].stats


def test_dedupe_can_be_disabled():
    requests = [RunRequest("SPM_G", awg(), SCEN)] * 2
    matrix = run_matrix(requests, jobs=1, cache=None, dedupe=False)
    assert matrix.deduped == 0


def test_keep_gpu_rejected_across_the_pool():
    requests = [RunRequest("SPM_G", awg(), SCEN, keep_gpu=True)]
    with pytest.raises(ConfigError, match="keep_gpu"):
        run_matrix(requests, jobs=2, cache=None)


def test_keep_gpu_allowed_in_process(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="test")
    matrix = run_matrix(
        [RunRequest("SPM_G", awg(), SCEN, keep_gpu=True)],
        jobs=1, cache=cache,
    )
    assert matrix[0].gpu is not None
    # keep_gpu cells bypass the cache entirely
    assert (matrix.cache_hits, matrix.cache_misses) == (0, 0)
    assert cache.entry_count() == 0


def test_per_cell_error_capture_does_not_abort_sweep():
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("NO_SUCH_BENCHMARK", awg(), SCEN),
        RunRequest("TB_LG", awg(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert matrix[0].ok
    assert matrix[2].ok
    # without a cache the summary still says what ran and what failed
    assert matrix.summary().startswith(
        "matrix: 3 cells, 3 executed, 1 failed, 0 cache hits, 0 misses")
    errors = matrix.errors
    assert len(errors) == 1 and errors[0][0] == 1
    with pytest.raises(CellError, match="NO_SUCH_BENCHMARK"):
        matrix[1]


def test_errors_capture_across_pool():
    requests = [
        RunRequest("NO_SUCH_BENCHMARK", awg(), SCEN),
        RunRequest("SPM_G", awg(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=2, cache=None)
    assert len(matrix.errors) == 1
    assert matrix[1].ok


def test_get_rejects_ambiguous_pairs():
    requests = [
        RunRequest("SPM_G", awg(), SCEN,
                   config_overrides={"syncmon_sets": 256}),
        RunRequest("SPM_G", awg(), SCEN,
                   config_overrides={"syncmon_sets": 1}),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    with pytest.raises(KeyError, match="ambiguous"):
        matrix.get("SPM_G", "AWG")
    with pytest.raises(KeyError):
        matrix.get("SPM_G", "Baseline")
    assert matrix[0].cycles != 0


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    assert resolve_jobs(None) >= 1
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(None) == 7
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        resolve_jobs(None)


def test_derived_stats_exported_for_figures():
    """fig13/table2/ablations read these instead of holding the GPU."""
    res = run_matrix([RunRequest("TB_LG", monnr_all(), SCEN)],
                     jobs=1, cache=None)[0]
    for key in ("cp.ds.waiting_conditions", "cp.ds.monitored_addresses",
                "cp.ds.waiting_wgs", "cp.ds.monitor_table",
                "cp.arena.peak_bytes", "char.sync_vars",
                "char.waiters_per_cond"):
        assert key in res.stats
    assert res.stats["char.sync_vars"] >= 1
