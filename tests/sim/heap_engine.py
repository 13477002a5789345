"""The binary-heap event engine, kept as the test oracle.

:class:`HeapEngine` is the simulator's original engine: one binary heap
of ``(time, seq, entry)``, an entry being an event or a call entry. It
implements the same contract as the production
:class:`~repro.sim.engine.CalendarEngine` — entries at one cycle fire in
FIFO order of scheduling — with none of the calendar queue's lanes, so
the two must agree on every observable surface:

- ``tests/sim/test_engine.py`` runs each engine unit test on both;
- ``tests/integration/test_engine_differential.py`` swaps this engine
  into :class:`~repro.gpu.gpu.GPU` and pins the full benchmark × policy
  grid, a traced export and a kill-and-resume sweep bit-identical.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import _EngineBase
from repro.sim.events import Event


class HeapEngine(_EngineBase):
    """One binary heap of ``(time, seq, entry)``."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[int, int, object]] = []

    def _push(self, entry, delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, entry))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    def schedule(self, event: Event, delay: int = 0, value: object = None) -> Event:
        """Arrange for ``event`` to fire ``delay`` cycles from now."""
        event.mark_scheduled(value)
        self._push(event, delay)
        return event

    def _physical_size(self) -> int:
        return len(self._heap)

    def _compact(self) -> None:
        heap = self._heap
        removed = self._dead
        # in place, so aliases held by an active run() loop stay valid
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self._compactions += 1
        self._compacted_entries += removed
        self._reaped += removed

    def peek(self) -> Optional[int]:
        """The time of the next scheduled event, or None if idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
            self._reaped += 1
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Fire the next event. Returns False if the queue is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, event = pop(heap)
            if event.cancelled:
                self._dead -= 1
                self._reaped += 1
                continue
            if when < self._now:
                raise SimulationError("event heap time went backwards")
            self._now = when
            self._live -= 1
            self._fired += 1
            event.fire()
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` cycles pass, or the event
        budget is exhausted. Returns the number of events processed."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is before the clock ({self._now})")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                when, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    self._reaped += 1
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                pop(heap)
                if when < self._now:
                    raise SimulationError("event heap time went backwards")
                self._now = when
                self._live -= 1
                self._fired += 1
                event.fire()
                processed += 1
        finally:
            self._running = False
        return processed

    def drain_batches(self, boundary: int, should_halt: Callable[[], bool]) -> int:
        """Fire whole same-timestamp batches while the next event is
        strictly before ``boundary``; re-check ``should_halt`` only
        between timestamps. Returns the number of events fired."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    pop(heap)
                    self._dead -= 1
                    self._reaped += 1
                    continue
                t = head[0]
                if t >= boundary:
                    break
                if should_halt():
                    break
                if t < self._now:
                    raise SimulationError("event heap time went backwards")
                self._now = t
                # drain every event at t (including ones scheduled at t
                # by the events themselves) in one inner loop
                while heap:
                    when, _seq, event = heap[0]
                    if event.cancelled:
                        pop(heap)
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    if when != t:
                        break
                    pop(heap)
                    self._live -= 1
                    event.fire()
                    fired += 1
        finally:
            self._running = False
        self._fired += fired
        return fired
