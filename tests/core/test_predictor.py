"""Unit tests for AWG's resume-count and stall-time predictors."""

import pytest

from repro.core.bloom import CountingBloomFilter
from repro.core.policies import all_policy_names, awg, monnr_one, named_policy
from repro.core.predictor import ResumeDecision, ResumePredictor, StallTimePredictor
from repro.core.syncmon import SyncMon
from repro.experiments.runner import PAPER_SCALE, QUICK_SCALE, run_benchmark
from repro.faults.plan import FaultPlan, PredictorNoise
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.mem.cache import Cache
from repro.sim.rng import RngStream


@pytest.fixture
def pred():
    return ResumePredictor(filter_count=512, bits=24, hashes=6,
                           rng=RngStream(1, "pred"))


ADDR = 0x4000


def test_barrier_pattern_predicts_all(pred):
    """Many waiters + many unique updates (a counting barrier) -> ALL."""
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    assert pred.predict(ADDR, num_waiters=7) is ResumeDecision.ALL


def test_mutex_pattern_predicts_one(pred):
    """Many waiters + a toggling lock word (two unique values) -> ONE."""
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    assert pred.unique_updates(ADDR) == 2
    assert pred.predict(ADDR, num_waiters=10) is ResumeDecision.ONE


def test_single_waiter_predicts_all(pred):
    pred.record_update(ADDR, 1)
    assert pred.predict(ADDR, num_waiters=1) is ResumeDecision.ALL


def test_exactly_three_uniques_is_all(pred):
    for v in (1, 2, 3):
        pred.record_update(ADDR, v)
    assert pred.predict(ADDR, num_waiters=2) is ResumeDecision.ALL


def test_release_resets_filter(pred):
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    pred.release(ADDR)
    assert pred.unique_updates(ADDR) == 0
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    assert pred.predict(ADDR, num_waiters=5) is ResumeDecision.ONE


def test_distinct_addresses_do_not_interfere(pred):
    a, b = 0x4000, 0x8000
    for v in range(1, 10):
        pred.record_update(a, v)
    pred.record_update(b, 1)
    assert pred.unique_updates(b) <= 2


def test_prediction_counters(pred):
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    pred.predict(ADDR, 5)
    pred.release(ADDR)
    pred.record_update(ADDR, 1)
    pred.predict(ADDR, 5)
    assert pred.predictions_all == 1
    assert pred.predictions_one == 1


# -- filters are built at the first use of their index ------------------------

@pytest.fixture
def built(monkeypatch):
    """Counts every CountingBloomFilter constructed while the test runs."""
    count = [0]
    init = CountingBloomFilter.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(CountingBloomFilter, "__init__", counting_init)
    return count


@pytest.mark.parametrize("name", sorted(all_policy_names()))
def test_fresh_gpu_builds_no_filters(built, name):
    gpu = GPU(GPUConfig(), named_policy(name))
    assert built[0] == 0
    assert gpu.syncmon.predictor.filters == {}


def test_release_of_an_unused_index_builds_nothing(built, pred):
    pred.release(ADDR)
    assert built[0] == 0
    assert pred.unique_updates(ADDR) == 0


def test_release_resets_a_filter_built_by_a_colliding_address(pred):
    idx = pred._index_hash(ADDR)
    other = next(a for a in range(ADDR + 4, ADDR + 4 * 10_000, 4)
                 if pred._index_hash(a) == idx)
    for v in range(1, 8):
        pred.record_update(other, v)
    filt = pred.filters[idx]
    assert any(filt.counters)
    pred.release(ADDR)
    assert not any(filt.counters) and filt.distinct_estimate == 0
    assert pred.unique_updates(other) == 7  # only ADDR's estimate drops


def test_awg_paper_cell_builds_filters_only_for_updated_indices(
        built, monkeypatch):
    """The filters observe every atomic update at the L2, monitored or
    not (SyncMon.on_atomic), so a cell builds exactly the indices of the
    addresses atomics wrote: every monitored index, and far fewer than
    the 512 the hardware has."""
    monitored, updated = set(), set()
    set_monitored = Cache.set_monitored
    on_atomic = SyncMon.on_atomic

    def watch_monitored(self, addr, flag):
        if flag:
            monitored.add(addr)
        set_monitored(self, addr, flag)

    def watch_updates(self, result, wg_id):
        if result.wrote:
            updated.add(result.addr)
        on_atomic(self, result, wg_id)

    monkeypatch.setattr(Cache, "set_monitored", watch_monitored)
    monkeypatch.setattr(SyncMon, "on_atomic", watch_updates)
    res = run_benchmark("FAM_L", awg(), PAPER_SCALE, keep_gpu=True)
    assert res.ok
    pred = res.gpu.syncmon.predictor
    index = pred._index_hash
    assert monitored
    assert {index(a) for a in monitored} <= set(pred.filters)
    assert set(pred.filters) == {index(a) for a in updated}
    assert built[0] == len(pred.filters) < pred.filter_count


def test_predictor_noise_off_awg_perturbs_and_builds_nothing(built):
    plan = FaultPlan(name="test-noise", seed=1,
                     predictor=PredictorNoise(period_us=0.25, insertions=4))
    res = run_benchmark("SPM_G", monnr_one(), QUICK_SCALE.scaled(
        fault_plan=plan), validate=False)
    assert res.ok
    assert "faults.bloom.perturbations" not in res.stats
    assert built[0] == 0


# -- stall-time predictor -----------------------------------------------------

def test_stall_predictor_initial_value():
    sp = StallTimePredictor(initial=2_000)
    assert sp.predict() == 2_000


def test_stall_predictor_converges_to_mean():
    sp = StallTimePredictor()
    for _ in range(100):
        sp.record(5_000)
    assert sp.predict() == pytest.approx(5_000, rel=0.01)
    # predictions never exceed a few context-switch round-trips
    for _ in range(1000):
        sp.record(50_000)
    assert sp.predict() == sp.max_stall


def test_stall_predictor_clamps():
    sp = StallTimePredictor(min_stall=500, max_stall=50_000)
    for _ in range(10):
        sp.record(5)
    assert sp.predict() == 500
    for _ in range(1000):
        sp.record(10_000_000)
    assert sp.predict() == 50_000


def test_stall_predictor_running_mean():
    sp = StallTimePredictor(initial=0)
    sp.record(100)
    sp.record(300)
    assert sp.mean == pytest.approx(200)
    assert sp.count == 2
