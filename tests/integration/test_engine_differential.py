"""Calendar engine vs the binary-heap oracle: bit-identity, everywhere.

The production calendar-queue engine must be indistinguishable from the
binary-heap oracle (:class:`tests.sim.heap_engine.HeapEngine`, swapped
into :class:`~repro.gpu.gpu.GPU` with ``monkeypatch``) on every
observable surface:

* the full benchmark × policy matrix (the same 12×8 grid the policy
  differential suite uses) produces identical cycles, completion
  outcomes, stats snapshots, and final memory words;
* a traced run exports an identical Chrome/Perfetto document once the
  ``engine`` self-observability category (the one surface that is
  *allowed* to differ — the calendar engine reports two extra lane
  counters) is filtered out;
* a checkpointed sweep that is SIGKILLed mid-flight and resumed under
  the production engine finishes bit-identical to an uninterrupted
  oracle run of the same sweep.

Scheduling order is the simulator's ground truth — a single divergent
tie-break cascades into different lock handoff orders, different resume
sets, and different final stats — so these tests are the contract that
lets the calendar queue stand in for the heap without re-baselining
goldens.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.gpu.gpu
from repro.core.policies import (
    awg,
    baseline,
    minresume,
    monnr_all,
    monnr_one,
    monr_all,
    monrs_all,
    timeout,
)
from repro.experiments import QUICK_SCALE, run_benchmark
from repro.experiments.cache import RESULT_FIELDS
from repro.experiments.matrix import run_matrix
from repro.sim.engine import CalendarEngine
from repro.trace.config import TraceConfig
from repro.workloads.registry import benchmark_names
from tests.sim.heap_engine import HeapEngine

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: the policy-differential scenario: small enough that the whole
#: 12 × 8 × 2-engine grid simulates in-process in well under a minute,
#: oversubscribed enough (CU loss, 1 WG slot per CU) to exercise
#: preemption storms, cancellation churn, and every wait mechanism
SCENARIO = QUICK_SCALE.scaled(
    total_wgs=8,
    wgs_per_group=4,
    max_wgs_per_cu=1,
    iterations=1,
    episodes=4,
    resource_loss_at_us=0.5,
    deadlock_window=100_000,
    label="engine-differential",
)

POLICIES = [
    baseline(),
    timeout(20_000),
    monrs_all(),
    monr_all(),
    monnr_all(),
    monnr_one(),
    awg(),
    minresume(),
]
BENCHMARKS = benchmark_names()
#: the engine class each side of the comparison builds GPUs with
ENGINES = {"reference": HeapEngine, "calendar": CalendarEngine}


def _run_with_engine(kind, *args, **kwargs):
    """run_benchmark with every GPU built on the given engine."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repro.gpu.gpu, "Engine", ENGINES[kind])
        return run_benchmark(*args, **kwargs)


@pytest.fixture(scope="module")
def matrix():
    """(engine, benchmark, policy) -> RunResult, GPUs kept for memory."""
    cells = {}
    for kind in ENGINES:
        for bench in BENCHMARKS:
            for policy in POLICIES:
                cells[(kind, bench, policy.name)] = _run_with_engine(
                    kind, bench, policy, SCENARIO,
                    validate=False, keep_gpu=True,
                )
    return cells


def test_each_side_ran_on_its_engine(matrix):
    """Guard against a vacuous comparison: the patch must reach GPU."""
    for kind, cls in ENGINES.items():
        cell = matrix[(kind, BENCHMARKS[0], POLICIES[0].name)]
        assert type(cell.gpu.env) is cls
    assert repro.gpu.gpu.Engine is CalendarEngine  # the patch was undone


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("policy", [p.name for p in POLICIES])
def test_outcome_and_stats_identical(matrix, bench, policy):
    ref = matrix[("reference", bench, policy)]
    cal = matrix[("calendar", bench, policy)]
    assert (cal.cycles, cal.completed, cal.deadlocked, cal.reason) == (
        ref.cycles, ref.completed, ref.deadlocked, ref.reason
    ), f"{bench}/{policy}: run outcome diverged between engines"
    diffs = {
        key: (ref.stats.get(key), cal.stats.get(key))
        for key in set(ref.stats) | set(cal.stats)
        if ref.stats.get(key) != cal.stats.get(key)
    }
    assert not diffs, (
        f"{bench}/{policy}: {len(diffs)} stat(s) diverged between "
        f"engines (first: {sorted(diffs)[:5]})"
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("policy", [p.name for p in POLICIES])
def test_final_memory_identical(matrix, bench, policy):
    ref = dict(matrix[("reference", bench, policy)].gpu.store.words())
    cal = dict(matrix[("calendar", bench, policy)].gpu.store.words())
    diffs = sorted(
        addr for addr in set(ref) | set(cal)
        if ref.get(addr, 0) != cal.get(addr, 0)
    )
    assert not diffs, (
        f"{bench}/{policy}: final memory diverged at {len(diffs)} "
        f"addresses (first: {[hex(a) for a in diffs[:5]]})"
    )


def _strip_engine_events(trace):
    """Drop the ``engine`` observability surface from an export.

    That category is the one place the two engines legitimately differ
    (the calendar engine emits two extra lane counters); everything
    else must match event-for-event.
    """
    tracks = {
        ev["tid"]: ev["args"]["name"]
        for ev in trace["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }
    kept_tracks = sorted(
        name for name in tracks.values() if not name.startswith("engine.")
    )
    events = []
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "M":
            continue  # tid metadata is normalized via kept_tracks below
        if ev.get("cat") == "engine":
            continue
        track = tracks.get(ev.get("tid"))
        if track is not None and track.startswith("engine."):
            continue
        # tids are assigned by sorted track name, so the calendar
        # engine's extra lane-counter tracks shift every later tid;
        # compare against the stable track *name* instead
        ev = dict(ev)
        ev["tid"] = track if track is not None else ev.get("tid")
        events.append(ev)
    return kept_tracks, events


def test_traced_run_exports_identically():
    overrides = {"trace": TraceConfig()}
    results = {
        kind: _run_with_engine(
            kind, "FAM_G", awg(), QUICK_SCALE,
            validate=False, config_overrides=overrides,
        )
        for kind in ENGINES
    }
    ref, cal = results["reference"], results["calendar"]
    assert ref.cycles == cal.cycles
    ref_tracks, ref_events = _strip_engine_events(ref.trace)
    cal_tracks, cal_events = _strip_engine_events(cal.trace)
    assert ref_tracks == cal_tracks
    assert len(ref_events) == len(cal_events)
    for i, (a, b) in enumerate(zip(ref_events, cal_events)):
        assert a == b, f"traceEvents[{i}] diverged between engines"


# -- kill-and-resume differential -------------------------------------

_REQUESTS_SNIPPET = """
from repro.core.policies import named_policy
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE


def build_requests():
    # _KILL placed third: two cells complete and checkpoint before the
    # crash, two never start
    benches = ["SPM_G", "FAM_G", "_KILL", "TB_LG", "SLM_G"]
    return [
        RunRequest(bench, named_policy("awg"), QUICK_SCALE, validate=False)
        for bench in benches
    ]
"""

_CHILD_MAIN = """
import sys
from repro.experiments.matrix import SweepInterrupted, run_matrix

try:
    run_matrix(build_requests(), jobs=1, cache=None,
               checkpoint=sys.argv[1])
except SweepInterrupted as exc:
    sys.exit(128 + exc.signum)
"""


def _build_requests():
    namespace = {}
    exec(_REQUESTS_SNIPPET, namespace)
    return namespace["build_requests"]()


def _result_fields(result):
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def test_kill_and_resume_matches_reference_engine(tmp_path, monkeypatch):
    """SIGKILL a production-engine sweep mid-flight, resume it, and pin
    the resumed results bit-equal to an uninterrupted sweep under the
    heap oracle — crash recovery and the engine swap compose."""
    ckpt_dir = tmp_path / "ckpt"
    sentinel = tmp_path / "kill-me"
    sentinel.write_text("")
    script = tmp_path / "child_sweep.py"
    script.write_text(_REQUESTS_SNIPPET + _CHILD_MAIN)
    env = dict(
        os.environ,
        PYTHONPATH=SRC,
        REPRO_NO_CACHE="1",
        REPRO_STRESS_KILL=str(sentinel),
    )
    env.pop("REPRO_CHECKPOINT", None)
    child = subprocess.Popen(
        [sys.executable, str(script), str(ckpt_dir)],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.communicate(timeout=300)
    assert child.returncode == -signal.SIGKILL
    assert not sentinel.exists()  # the drill consumed its sentinel

    # resume under the production engine in-process
    requests = _build_requests()
    resumed = run_matrix(requests, jobs=1, cache=None, checkpoint=ckpt_dir)
    assert not resumed.errors
    assert resumed.resumed == 2  # SPM_G, FAM_G survived the crash

    # the uninterrupted control runs on the heap oracle (jobs=1 keeps
    # every cell in this process, where the patch applies)
    monkeypatch.setattr(repro.gpu.gpu, "Engine", HeapEngine)
    control = run_matrix(_build_requests(), jobs=1, cache=None,
                         checkpoint=False)
    assert not control.errors
    for index in range(len(requests)):
        assert _result_fields(resumed[index]) == \
            _result_fields(control[index]), (
                f"cell {index} diverged between a killed-and-resumed "
                f"production sweep and an uninterrupted oracle sweep"
            )
