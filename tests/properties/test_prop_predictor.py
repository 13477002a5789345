"""Property test: the resume predictor's lazily built Bloom filters.

:class:`ResumePredictor` builds a filter at the first use of its index.
A random sequence of updates, predictions, perturbations and releases is
run against it and against an eager reference that builds all 512
filters up front, as the hardware has them. Both must agree on every
decision, every unique-update estimate and every filter's counters after
every step. The address pool holds pairs forced to share a filter index,
so the collision path (one address resetting a filter another built) is
exercised.
"""

from functools import lru_cache
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import CountingBloomFilter
from repro.core.hashing import UniversalHash
from repro.core.predictor import ResumeDecision, ResumePredictor
from repro.sim.rng import RngStream

FILTERS, BITS, HASHES = 512, 24, 6
SEEDS = (1, 2, 3)
#: pool slots: three pairs of addresses that share a filter index
POOL_SIZE = 6


class EagerPredictor:
    """The predictor as it was before lazy construction: all filters
    built in the constructor, every release resets its index."""

    def __init__(self, rng: RngStream) -> None:
        self.filters = [CountingBloomFilter(BITS, HASHES, rng.child(f"bloom{i}"))
                        for i in range(FILTERS)]
        self._index_hash = UniversalHash(FILTERS, rng.child("bloom-index"))
        self._live = {}
        self.predictions_all = 0
        self.predictions_one = 0

    def record_update(self, addr, value):
        if self.filters[self._index_hash(addr)].insert(value):
            self._live[addr] = self._live.get(addr, 0) + 1

    perturb = record_update

    def unique_updates(self, addr):
        return self._live.get(addr, 0)

    def predict(self, addr, num_waiters):
        if num_waiters > 1 and self.unique_updates(addr) > 2:
            self.predictions_all += 1
            return ResumeDecision.ALL
        if num_waiters > 1:
            self.predictions_one += 1
            return ResumeDecision.ONE
        self.predictions_all += 1
        return ResumeDecision.ALL

    def release(self, addr):
        self._live.pop(addr, None)
        self.filters[self._index_hash(addr)].reset()


@lru_cache(maxsize=None)
def colliding_pool(seed):
    """Three address pairs, each pair on one filter index of ``seed``."""
    index = UniversalHash(FILTERS, RngStream(seed, "pred").child("bloom-index"))
    by_index, pool = {}, []
    for addr in count(0x1000, 4):
        group = by_index.setdefault(index(addr), [])
        group.append(addr)
        if len(group) == 2:
            pool += group
            if len(pool) == POOL_SIZE:
                return pool


slots = st.integers(0, POOL_SIZE - 1)
values = st.integers(0, 2**31 - 1)
ops = st.lists(st.one_of(
    st.tuples(st.just("record_update"), slots, st.integers(0, 5)),
    st.tuples(st.just("perturb"), slots, values),
    st.tuples(st.just("predict"), slots, st.integers(1, 4)),
    st.tuples(st.just("release"), slots, st.just(0)),
), max_size=40)


def assert_same_state(lazy, eager, pool):
    assert (lazy.predictions_all, lazy.predictions_one) == (
        eager.predictions_all, eager.predictions_one)
    for addr in pool:
        assert lazy.unique_updates(addr) == eager.unique_updates(addr)
    for idx, ref in enumerate(eager.filters):
        filt = lazy.filters.get(idx)
        if filt is None:
            assert not any(ref.counters) and ref.distinct_estimate == 0
        else:
            assert filt.counters == ref.counters
            assert filt.distinct_estimate == ref.distinct_estimate
            assert filt.insertions == ref.insertions


@given(st.sampled_from(SEEDS), ops)
@settings(max_examples=40)
def test_lazy_predictor_matches_eager_reference(seed, steps):
    rng = RngStream(seed, "pred")
    lazy = ResumePredictor(FILTERS, BITS, HASHES, rng)
    eager = EagerPredictor(rng)
    pool = colliding_pool(seed)
    for op, slot, arg in steps:
        addr = pool[slot]
        if op == "predict":
            assert lazy.predict(addr, arg) is eager.predict(addr, arg)
        elif op == "release":
            lazy.release(addr)
            eager.release(addr)
        else:
            getattr(lazy, op)(addr, arg)
            getattr(eager, op)(addr, arg)
        assert_same_state(lazy, eager, pool)
    assert len(lazy.filters) <= len({lazy._index_hash(a) for a in pool})
