"""A deterministic work budget for the event path, no timing involved.

Host time is never gated in CI, so an event-path regression (a timer
going back to allocating an :class:`~repro.sim.events.Event` and an
observer list, or a dropped or extra completion hop) would otherwise go
unnoticed until someone benchmarks. Two paper-scale cells pin both
sides of it:

* the number of queue entries fired is exact: a dropped or added hop
  changes it (and, in general, the simulated result);
* ``Event`` constructions, counted by wrapping ``Event.__init__``, stay
  under a ceiling. Each ceiling is the count before timers, resource
  finish hops, memory completions and process starts became call entries
  (18 927 and 39 705), scaled by 870 042 / 1 330 906: the fall the whole
  18-cell paper-scale benchmark (``perfbench/run.py --workload
  paper-sim``) saw. Today's counts are 11 024 and 22 919.
"""

from __future__ import annotations

import pytest

from repro.core.policies import awg, monnr_one
from repro.experiments.runner import PAPER_SCALE, run_benchmark
from repro.sim.events import Event

#: (benchmark, policy, queue entries fired, Event construction ceiling)
CELLS = [
    ("FAM_L", awg(), 18_326, 12_372),
    ("SPM_G", monnr_one(), 36_601, 25_956),
]


@pytest.mark.parametrize("bench,policy,fired,ceiling", CELLS,
                         ids=[f"{c[0]}-{c[1].name}" for c in CELLS])
def test_event_work_stays_in_budget(monkeypatch, bench, policy, fired,
                                    ceiling):
    constructed = 0
    init = Event.__init__

    def counting_init(self, env):
        nonlocal constructed
        constructed += 1
        init(self, env)

    monkeypatch.setattr(Event, "__init__", counting_init)
    result = run_benchmark(bench, policy, PAPER_SCALE, keep_gpu=True)
    assert result.ok
    assert result.gpu.env.metrics()["fired"] == fired
    assert constructed <= ceiling, (
        f"{bench}/{policy.name}: {constructed} Events constructed, budget "
        f"{ceiling}")
