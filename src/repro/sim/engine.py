"""The discrete-event simulation engine.

The engine owns the simulation clock (an integer cycle count) and the
queue of scheduled entries. A queue entry is either an
:class:`~repro.sim.events.Event` (something a process can wait for or
observers can subscribe to: :meth:`_EngineBase.timeout`,
:meth:`~repro.sim.events.Event.try_succeed`) or a *call entry*
(:meth:`_EngineBase.call_at`): a fire-and-forget timer that runs one
callable and allocates no event, observer list or wrapper. Both kinds
take the same ``(time, seq)`` slot through the engine's one
``_push(entry, delay)``, so which kind a component uses never changes
firing order. Processes (see :mod:`repro.sim.process`) yield events to
wait for them.

:class:`CalendarEngine` (exported as :data:`Engine`) is a calendar
queue: a ring of per-cycle FIFO buckets absorbs near-future entries
(the common case: delay-0 process starts and completion hops,
fixed-latency memory completions, retry intervals), a binary-heap
overflow lane holds far-future or irregular entries, and
:meth:`~CalendarEngine.run` drains all entries that share a timestamp
in one batched inner loop.

**Determinism contract.** Entries scheduled at the same cycle fire in
FIFO order of scheduling. A plain binary heap of ``(time, seq, entry)``
is the executable spec of that order: it lives in the tests as the
oracle (``tests/sim/heap_engine.py``), and
``tests/integration/test_engine_differential.py`` pins the two
bit-identical — same firing order, same stats, same traces, same final
memory.

Cancellation is lazy but bounded: a cancelled event's queue entry is
garbage until its timestamp is reached, so preemption storms that
cancel many far-future timeouts would otherwise grow memory and pop
cost without bound. When dead entries cross a threshold the queue is
compacted in place (see :meth:`_EngineBase.note_cancelled`). Call
entries cannot be cancelled.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import _SCHEDULED, Event

#: never compact below this many dead entries (tiny queues aren't worth it)
COMPACT_MIN_DEAD = 64

#: calendar ring span in cycles (power of two). Sized to absorb every
#: fixed-latency delay the machine model produces — memory completions
#: (<= ~400 cycles), context-switch overhead (500), resume latency
#: (100) and the compute quantum / CP firmware tick (2 000) — so the
#: overflow heap only sees policy timers (20k retry intervals, 100k
#: backstops) and fault-plan alarms.
RING_SPAN = 2048


class _Call:
    """A call entry: a queue slot that runs one callable when it fires.

    The engine loops treat it like an event (they read ``cancelled``
    and call ``fire()``), but it is only the callable itself, stored
    under the name ``fire``: firing costs no extra frame, and there is
    no value, state or observer list to allocate."""

    __slots__ = ("fire",)
    cancelled = False

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fire = fn


class _EngineBase:
    """Clock, event factory and lazy-cancellation accounting shared by
    the production engine and the test oracle."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        #: live (scheduled, non-cancelled) events — maintained incrementally
        #: on schedule/cancel/fire so :meth:`pending_events` is O(1)
        self._live: int = 0
        #: cancelled events still physically queued (lazy deletion debt)
        self._dead: int = 0
        # -- observability (engine.* counters in the trace layer) ------
        self._peak_pending: int = 0
        self._fired: int = 0
        self._reaped: int = 0
        self._compactions: int = 0
        self._compacted_entries: int = 0

    # -- clock and event factory ---------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def event(self) -> Event:
        """Create a fresh unfired event bound to this engine."""
        return Event(self)

    def timeout(self, delay: int, value: object = None) -> Event:
        """Create an event that fires ``delay`` cycles from now."""
        ev = Event(self)
        # mark_scheduled, inlined: a fresh event cannot be scheduled yet
        ev._state = _SCHEDULED
        ev._value = value
        self._push(ev, delay)
        return ev

    def call_at(self, delay: int, fn: Callable[[], None]) -> None:
        """Invoke ``fn()`` after ``delay`` cycles (fire-and-forget).

        Takes the same queue slot an event scheduled now would, without
        allocating one."""
        self._push(_Call(fn), delay)

    def schedule(self, event: Event, delay: int = 0, value: object = None) -> Event:
        raise NotImplementedError  # pragma: no cover

    def _push(self, entry, delay: int) -> None:
        """Queue ``entry`` (an event or a call entry) ``delay`` cycles
        from now, behind everything already queued for that cycle."""
        raise NotImplementedError  # pragma: no cover

    # -- lazy-cancellation accounting ----------------------------------
    def note_cancelled(self) -> None:
        """A scheduled event was cancelled (called by :meth:`Event.cancel`).

        The queue entry stays behind as garbage; once dead entries are
        both numerous and the majority of the queue, compact in place so
        cancel-heavy runs (preemption storms cancelling far-future
        timeouts) keep bounded memory and pop cost."""
        self._live -= 1
        self._dead += 1
        if (self._dead >= COMPACT_MIN_DEAD
                and self._dead * 2 >= self._physical_size()):
            self._compact()

    def _physical_size(self) -> int:
        raise NotImplementedError  # pragma: no cover

    def _compact(self) -> None:
        raise NotImplementedError  # pragma: no cover

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        O(1): an incrementally maintained counter (the full-queue scan it
        replaces survives as the oracle in ``tests/sim/test_engine.py``).
        """
        return self._live

    # -- observability --------------------------------------------------
    def metrics(self) -> Dict[str, int]:
        """Scheduler observability counters (``engine.*`` in traces).

        Reading them never perturbs a run: they are plain integers
        maintained by the normal schedule/fire/cancel paths."""
        return {
            "peak_pending": self._peak_pending,
            "pending": self._live,
            "dead_pending": self._dead,
            "fired": self._fired,
            "cancelled_reaped": self._reaped,
            "compactions": self._compactions,
            "compacted_entries": self._compacted_entries,
        }


class CalendarEngine(_EngineBase):
    """Calendar-queue engine: per-cycle FIFO ring + heap overflow lane.

    - **Ring lane** — ``RING_SPAN`` deques, one per cycle in the window
      ``[now, now + RING_SPAN)``, each built at its first push. A push
      with ``delay < RING_SPAN`` is a single O(1) append; no tuples, no
      heap traffic. Because the global sequence counter increases with
      every push, append order *is* FIFO (time, seq) order within a
      bucket.
    - **Overflow lane** — delays ``>= RING_SPAN`` go to a binary heap of
      ``(time, seq, entry)``. For one timestamp, every overflow entry
      was scheduled strictly earlier than any ring entry (it had to be
      scheduled while the timestamp was still outside the ring window),
      so draining the overflow lane first preserves global FIFO order.
    - **Same-cycle fast lane** — a ``delay=0`` schedule during a batch
      lands at the tail of the bucket currently being drained and fires
      in the same inner loop: delay-0 process starts, completion hops
      and notify chains never touch the heap and never re-enter the
      outer loop.
    """

    def __init__(self) -> None:
        super().__init__()
        self._span = RING_SPAN
        self._mask = RING_SPAN - 1
        #: a bucket's deque is built at its first push: the 2048 deques
        #: would otherwise be most of a fresh engine's (one per cell)
        #: construction cost, and most short runs never touch them all
        self._ring: List[Optional[deque]] = [None] * RING_SPAN
        #: physical entries (live + dead) currently in the ring
        self._ring_len = 0
        #: min-heap of bucket timestamps, pushed on every empty ->
        #: non-empty transition. One entry per occupied *timestamp*
        #: (not per event), so heap traffic is divided by the batch
        #: size; entries whose bucket has since drained are stale and
        #: discarded lazily by :meth:`_find_next`.
        self._bucket_times: List[int] = []
        self._overflow: List[Tuple[int, int, object]] = []
        # -- lane observability ------------------------------------
        self._bucket_fired = 0
        self._overflow_fired = 0

    # -- scheduling ----------------------------------------------------
    def _push(self, entry, delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if delay < self._span:
            when = self._now + delay
            bucket = self._ring[when & self._mask]
            if not bucket:
                if bucket is None:
                    bucket = self._ring[when & self._mask] = deque()
                if not (self._running and when == self._now):
                    # mid-batch same-cycle pushes (delay-0 chains) need
                    # no entry: the batch loop currently draining `when`
                    # absorbs them, and run()'s exit hook re-registers
                    # any leftovers
                    heapq.heappush(self._bucket_times, when)
            bucket.append(entry)
            self._ring_len += 1
        else:
            self._seq += 1
            heapq.heappush(
                self._overflow, (self._now + delay, self._seq, entry))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    def schedule(self, event: Event, delay: int = 0, value: object = None) -> Event:
        """Arrange for ``event`` to fire ``delay`` cycles from now.

        The event's value is set at fire time; scheduling an already-fired
        or already-scheduled event is an error.
        """
        event.mark_scheduled(value)
        self._push(event, delay)
        return event

    # -- compaction ----------------------------------------------------
    def _physical_size(self) -> int:
        return self._ring_len + len(self._overflow)

    def _compact(self) -> None:
        removed = self._dead
        overflow = self._overflow
        overflow[:] = [e for e in overflow if not e[2].cancelled]
        heapq.heapify(overflow)
        if self._ring_len:
            ring_len = 0
            for bucket in self._ring:
                if not bucket:
                    continue
                keep = [ev for ev in bucket if not ev.cancelled]
                # rebuild in place: a batch loop holding this deque keeps
                # draining the surviving entries in unchanged FIFO order
                bucket.clear()
                bucket.extend(keep)
                ring_len += len(keep)
            self._ring_len = ring_len
        self._dead = 0
        self._compactions += 1
        self._compacted_entries += removed
        self._reaped += removed

    # -- next-event discovery ------------------------------------------
    def _find_next(self) -> Optional[int]:
        """Timestamp of the next live event, reaping dead entries met on
        the way (they feed the same accounting as compaction).

        Invariant: every physical ring entry belongs to a timestamp in
        ``[now, now + RING_SPAN)`` — a bucket-time entry below ``now`` is
        therefore stale by construction (its bucket drained before the
        clock moved past it) and is discarded without looking. A valid
        entry's bucket, being inside the window, can only hold events of
        exactly that timestamp."""
        overflow = self._overflow
        while overflow and overflow[0][2].cancelled:
            heapq.heappop(overflow)
            self._dead -= 1
            self._reaped += 1
        htime = overflow[0][0] if overflow else None
        btimes = self._bucket_times
        if btimes:
            now = self._now
            mask = self._mask
            ring = self._ring
            pop = heapq.heappop
            while btimes:
                t = btimes[0]
                if t >= now:
                    bucket = ring[t & mask]
                    while bucket and bucket[0].cancelled:
                        bucket.popleft()
                        self._ring_len -= 1
                        self._dead -= 1
                        self._reaped += 1
                    if bucket:
                        if htime is not None and htime <= t:
                            return htime  # overflow wins ties (older seqs)
                        return t
                pop(btimes)  # stale: its bucket has since drained
        return htime

    def peek(self) -> Optional[int]:
        """The time of the next scheduled event, or None if idle.

        Dead entries drained while looking feed the compaction
        accounting exactly like the run loop's drains do."""
        return self._find_next()

    # -- firing --------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event. Returns False if the queue is empty."""
        t = self._find_next()
        if t is None:
            return False
        if t < self._now:
            raise SimulationError("event heap time went backwards")
        overflow = self._overflow
        if overflow and overflow[0][0] == t:
            event = heapq.heappop(overflow)[2]
            self._overflow_fired += 1
        else:
            bucket = self._ring[t & self._mask]
            event = bucket.popleft()
            self._ring_len -= 1
            self._bucket_fired += 1
        self._now = t
        self._live -= 1
        self._fired += 1
        event.fire()
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or the event
        budget is exhausted. Returns the number of events processed.

        All events sharing a timestamp drain in one inner loop — the
        clock, ``until`` and ``max_events`` are checked once per batch,
        not once per event (the budget still splits a batch exactly).
        Next-timestamp discovery and the batch drain are inlined: real
        workloads average only a few events per timestamp, so two method
        calls per batch would rival the cost of the work itself.

        ``until`` may not lie before the clock: the ring's window
        invariant (every entry within ``RING_SPAN`` of ``now``) does not
        survive a rewind."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is before the clock ({self._now})")
        self._running = True
        processed = 0
        overflow = self._overflow
        btimes = self._bucket_times
        ring = self._ring
        mask = self._mask
        hpop = heapq.heappop
        try:
            while True:
                # -- next live timestamp (see _find_next) ---------------
                while overflow and overflow[0][2].cancelled:
                    hpop(overflow)
                    self._dead -= 1
                    self._reaped += 1
                htime = overflow[0][0] if overflow else None
                now = self._now
                t = None
                while btimes:
                    bt = btimes[0]
                    if bt >= now:
                        b = ring[bt & mask]
                        while b and b[0].cancelled:
                            b.popleft()
                            self._ring_len -= 1
                            self._dead -= 1
                            self._reaped += 1
                        if b:
                            t = bt
                            break
                    hpop(btimes)  # stale: its bucket has since drained
                if htime is not None and (t is None or htime <= t):
                    t = htime  # overflow lane wins ties (older seqs)
                if t is None:
                    break
                if until is not None and t > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                if t < now:
                    raise SimulationError("event heap time went backwards")
                # -- drain the whole batch at t -------------------------
                # the head is live and the budget allows >= 1 event, so
                # the clock advance below is matched by at least one fire
                self._now = t
                over_n = 0
                while overflow:
                    entry = overflow[0]
                    if entry[0] != t:
                        break
                    event = entry[2]
                    if event.cancelled:
                        hpop(overflow)
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    if max_events is not None and processed >= max_events:
                        break
                    hpop(overflow)
                    self._live -= 1
                    event.fire()
                    processed += 1
                    over_n += 1
                bucket = ring[t & mask]
                bkt_n = 0
                while bucket:
                    if max_events is not None and processed >= max_events:
                        break
                    event = bucket.popleft()
                    self._ring_len -= 1
                    if event.cancelled:
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    self._live -= 1
                    event.fire()
                    processed += 1
                    bkt_n += 1
                self._overflow_fired += over_n
                self._bucket_fired += bkt_n
                self._fired += over_n + bkt_n
        finally:
            self._running = False
            # Any entry in the current-cycle bucket is at exactly _now
            # (window invariant), so if a budget split or an exception
            # left same-cycle events behind, re-register the timestamp.
            # Duplicate bucket-time entries are harmless (stale-popped).
            if ring[self._now & mask]:
                heapq.heappush(btimes, self._now)
        return processed

    def drain_batches(self, boundary: int, should_halt: Callable[[], bool]) -> int:
        """Fire whole same-timestamp batches while the next event is
        strictly before ``boundary``; re-check ``should_halt`` only
        between timestamps. Returns the number of events fired.

        This is the hot API behind :meth:`repro.gpu.gpu.GPU.run`: the
        caller performs its (rare) watchdog / cycle-budget checks at
        batch boundaries instead of paying per-event Python dispatch.
        Like :meth:`run`, discovery and drain are inlined."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        fired = 0
        overflow = self._overflow
        btimes = self._bucket_times
        ring = self._ring
        mask = self._mask
        hpop = heapq.heappop
        try:
            while True:
                # -- next live timestamp (see _find_next) ---------------
                while overflow and overflow[0][2].cancelled:
                    hpop(overflow)
                    self._dead -= 1
                    self._reaped += 1
                htime = overflow[0][0] if overflow else None
                now = self._now
                t = None
                while btimes:
                    bt = btimes[0]
                    if bt >= now:
                        b = ring[bt & mask]
                        while b and b[0].cancelled:
                            b.popleft()
                            self._ring_len -= 1
                            self._dead -= 1
                            self._reaped += 1
                        if b:
                            t = bt
                            break
                    hpop(btimes)  # stale: its bucket has since drained
                if htime is not None and (t is None or htime <= t):
                    t = htime  # overflow lane wins ties (older seqs)
                if t is None or t >= boundary:
                    break
                if should_halt():
                    break
                if t < now:
                    raise SimulationError("event heap time went backwards")
                # -- drain the whole batch at t -------------------------
                self._now = t
                over_n = 0
                while overflow:
                    entry = overflow[0]
                    if entry[0] != t:
                        break
                    hpop(overflow)
                    event = entry[2]
                    if event.cancelled:
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    self._live -= 1
                    event.fire()
                    over_n += 1
                bucket = ring[t & mask]
                bkt_n = 0
                while bucket:
                    event = bucket.popleft()
                    self._ring_len -= 1
                    if event.cancelled:
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    self._live -= 1
                    event.fire()
                    bkt_n += 1
                self._overflow_fired += over_n
                self._bucket_fired += bkt_n
                fired += over_n + bkt_n
        finally:
            self._running = False
            # see run(): re-register same-cycle leftovers on exit
            if ring[self._now & mask]:
                heapq.heappush(btimes, self._now)
        self._fired += fired
        return fired

    def metrics(self) -> Dict[str, int]:
        out = super().metrics()
        out["bucket_fired"] = self._bucket_fired
        out["overflow_fired"] = self._overflow_fired
        return out


#: the production engine; the binary-heap oracle it is pinned against
#: lives in the tests (``tests/sim/heap_engine.py``)
Engine = CalendarEngine
