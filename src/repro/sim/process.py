"""Generator-based simulation processes.

A process wraps a Python generator. The generator yields
:class:`~repro.sim.events.Event` objects; when an event fires the process
is resumed with the event's value as the result of the ``yield``
expression. Processes are themselves events — they fire with the
generator's return value — so processes can wait on each other.

A wait registers the bound method :meth:`Process._resume` as the
yielded event's observer; it checks that the event is still the one the
process waits on and sends its value in, in one frame. Starting a
process and interrupting it are delay-0 call entries into
:meth:`Process._step`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; fires (as an event) when the generator ends."""

    __slots__ = ("name", "_gen", "_waiting_on")

    def __init__(self, env: "Engine", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {type(generator)!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        # Start on the next engine tick at the current time so creation
        # order does not leak into execution order mid-callback.
        env.call_at(0, self._step)

    @property
    def alive(self) -> bool:
        return not self.fired

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.fired:
            return
        # The event the process was waiting for may still fire later; the
        # stale wake-up fails _resume's identity check and is ignored.
        self._waiting_on = None
        self.env.call_at(0, lambda: self._step(Interrupt(cause)))

    def _step(self, exc: Optional[BaseException] = None) -> None:
        """Start the generator (``exc`` None) or throw ``exc`` into it."""
        if self.fired:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(None)
        except StopIteration as stop:
            self.try_succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: terminate quietly.
            self.try_succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        """Observer of the awaited event: send its value in."""
        if self._waiting_on is not event:
            return  # stale: abandoned after an interrupt, or already done
        self._waiting_on = None
        try:
            target = self._gen.send(event._value)
        except StopIteration as stop:
            self.try_succeed(stop.value)
            return
        except Interrupt:
            self.try_succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)
