"""Property-based tests for the simulation engine and resources."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import RING_SPAN, CalendarEngine, Engine
from repro.sim.resources import FifoResource
from tests.sim.heap_engine import HeapEngine


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
@settings(max_examples=60)
def test_events_fire_in_nondecreasing_time(delays):
    env = Engine()
    fired = []
    for d in delays:
        env.timeout(d).add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(st.lists(st.integers(1, 100), min_size=1, max_size=30),
       st.integers(1, 4))
@settings(max_examples=60)
def test_fifo_resource_conservation(services, slots):
    """Total elapsed time >= total service / slots; all requests served
    in submission order per completion of equal-length groups."""
    env = Engine()
    res = FifoResource(env, "r", slots=slots)
    done = [res.service(s) for s in services]
    env.run()
    assert all(d.fired for d in done)
    assert env.now >= max(services)
    assert env.now >= sum(services) / slots - 1e-9
    assert env.now <= sum(services)


@given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
@settings(max_examples=40)
def test_single_slot_fifo_completion_order(services):
    env = Engine()
    res = FifoResource(env, "r")
    order = []
    for i, s in enumerate(services):
        res.service(s).add_callback(lambda e, i=i: order.append(i))
    env.run()
    assert order == list(range(len(services)))
    assert env.now == sum(services)


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)),
                min_size=1, max_size=25))
@settings(max_examples=40)
def test_nested_scheduling_from_callbacks(pairs):
    """Callbacks that schedule further events preserve clock monotonicity."""
    env = Engine()
    stamps = []

    def outer(ev, extra):
        stamps.append(env.now)
        env.timeout(extra).add_callback(lambda e: stamps.append(env.now))

    for first, extra in pairs:
        env.timeout(first).add_callback(
            lambda e, x=extra: outer(e, x))
    env.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 2 * len(pairs)


# -- calendar engine vs the heap oracle on random programs --------------------

#: delays on both sides of the calendar ring's edge, plus short ones
DELAYS = st.one_of(
    st.sampled_from([0, 1, 2, RING_SPAN - 1, RING_SPAN, 5000]),
    st.integers(0, 40),
)

#: one action of a program: ``(kind, delay, observers, target, children)``.
#: ``timeout``/``trigger`` make an event (``env.timeout`` or a fresh event
#: fired by ``try_succeed``) with 1-3 observers, the first of which runs
#: ``children`` when it fires; ``call`` is an ``env.call_at`` entry that
#: runs ``children``; ``cancel`` cancels a still-queued event picked by
#: ``target``. Children issued with delay 0 from inside a callback are
#: same-cycle hop chains.
ACTIONS = st.recursive(
    st.tuples(st.sampled_from(["timeout", "call", "trigger", "cancel"]),
              DELAYS, st.integers(1, 3), st.integers(0, 7), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(["timeout", "call", "trigger"]), DELAYS,
        st.integers(1, 3), st.integers(0, 7),
        st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)

#: how the program is driven: one run(), run(max_events=k) slices, or
#: the GPU's drain_batches(boundary) + step() pattern
DRIVERS = st.one_of(st.just(("run", 0)),
                    st.tuples(st.just("budget"), st.integers(1, 5)),
                    st.tuples(st.just("drain"), st.sampled_from([1, 7, 3000])))

PARITY_METRICS = ("fired", "peak_pending", "pending", "dead_pending")


def _run_program(engine_cls, program, driver):
    """Run ``program`` on a fresh engine; returns the fire trace
    ``(label, observer, now)``, the end-of-run metrics and the clock."""
    env = engine_cls()
    trace = []
    events = []
    labels = itertools.count()

    def perform(action):
        kind, delay, observers, target, children = action
        label = next(labels)
        if kind == "cancel":
            queued = [ev for ev in events if ev.triggered and not ev.fired
                      and not ev.cancelled]
            if queued:
                queued[target % len(queued)].cancel()
                trace.append((label, "cancel", env.now))
            return
        if kind == "call":
            def call():
                trace.append((label, "call", env.now))
                for child in children:
                    perform(child)
            assert env.call_at(delay, call) is None
            return
        ev = env.timeout(delay) if kind == "timeout" else env.event()
        events.append(ev)
        for idx in range(observers):
            def observe(fired, idx=idx):
                assert fired is ev and fired.fired
                trace.append((label, idx, env.now))
                if idx == 0:
                    for child in children:
                        perform(child)
            ev.add_callback(observe)
        if kind == "trigger":
            assert ev.try_succeed(label, delay=delay)
            assert not ev.try_succeed(None)

    for action in program:
        perform(action)
    mode, arg = driver
    if mode == "run":
        env.run()
    elif mode == "budget":
        while env.run(max_events=arg):
            pass
    else:
        while env.peek() is not None:
            env.drain_batches(env.now + arg, lambda: False)
            env.step()
    metrics = env.metrics()
    return trace, {k: metrics[k] for k in PARITY_METRICS}, env.now


def _check_observer_order(trace):
    """An event's observers run back to back in registration order (no
    action fires anything synchronously)."""
    fires = [(label, who) for label, who, _now in trace
             if isinstance(who, int)]
    for pos, (label, who) in enumerate(fires):
        if who:
            assert fires[pos - 1] == (label, who - 1), fires


@given(st.lists(ACTIONS, min_size=1, max_size=8), DRIVERS)
@settings(max_examples=150)
def test_calendar_engine_matches_heap_oracle_on_random_programs(program,
                                                                driver):
    got = _run_program(CalendarEngine, program, driver)
    want = _run_program(HeapEngine, program, driver)
    assert got == want
    trace, metrics, _now = got
    assert [now for _l, _w, now in trace] == sorted(
        now for _l, _w, now in trace)
    _check_observer_order(trace)
    assert metrics["pending"] == metrics["dead_pending"] == 0
