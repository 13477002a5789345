"""Trace configuration: category filters and the ring-buffer bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: every event category the simulator emits, in presentation order
CATEGORIES: Tuple[str, ...] = (
    "wg",        # WG state spans, retry-timer expiries, watchdog verdicts
    "dispatch",  # dispatches, swap-ins, ready transitions, notify delivery
    "sync",      # SyncMon registrations, notifies, withdrawals
    "predict",   # resume-predictor decisions, stall-time predictions
    "preempt",   # CU loss/restore and forced evictions
    "fault",     # injected faults (mirrors the faults.* stats)
    "cp",        # Command Processor: context switches, log drains, spills
    "mem",       # memory-op counts (counts only; no per-op ring events)
    "engine",    # scheduler health: peak pending, lane hit ratio, compactions
    "fabric",    # sweep fleet: lease grants/steals, commits, worker deaths
    "durability",  # I/O degradation: retries, dropped puts, flush failures
)


@dataclass(frozen=True)
class TraceConfig:
    """What to record and how much of it to keep.

    ``categories`` filters which subsystems record events; ``buffer_size``
    bounds the event ring (oldest events are dropped first, counted in
    ``trace.dropped``). Aggregate per-event *counts* are exact even when
    the ring drops detail.
    """

    categories: Tuple[str, ...] = CATEGORIES
    buffer_size: int = 65_536

    def __post_init__(self) -> None:
        # tolerate lists (e.g. from JSON round trips) by normalizing
        object.__setattr__(self, "categories", tuple(self.categories))
        unknown = [c for c in self.categories if c not in CATEGORIES]
        if unknown:
            raise ConfigError(
                f"unknown trace categories {unknown}; "
                f"known: {', '.join(CATEGORIES)}"
            )
        if len(set(self.categories)) != len(self.categories):
            raise ConfigError("duplicate trace categories")
        if self.buffer_size < 1:
            raise ConfigError("trace buffer_size must be >= 1")

    @classmethod
    def parse(cls, spec: str, buffer_size: int = 65_536) -> "TraceConfig":
        """Build from a CLI-style comma list, e.g. ``"wg,sync,dispatch"``.
        ``"all"`` (or an empty string) selects every category."""
        text = spec.strip()
        if not text or text == "all":
            return cls(buffer_size=buffer_size)
        names = tuple(c.strip() for c in text.split(",") if c.strip())
        return cls(categories=names, buffer_size=buffer_size)
