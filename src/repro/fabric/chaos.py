"""Seeded chaos drill: crash, stall and interrupt a real fabric sweep.

The drill runs ONE sweep (five paper workloads plus the ``_KILL``
stress drill) through three phases that share a checkpoint manifest,
fabric directory, result cache and ``REPRO_EXEC_LOG``:

A. **baseline** — ``run_matrix`` in-process, jobs=1, no cache: the
   bit-identity reference.
B. **coordinator interrupt** — a real fleet runs the sweep from a child
   coordinator, which is SIGTERMed after the first commit. It must exit
   ``128+SIGTERM`` and leave one resumable manifest.
C. **chaos resume** — the sweep resumes in-process while the
   coordinator's tick hook SIGKILLs one lease holder, SIGSTOPs another
   past the lease TTL (its lease is stolen; revived, it must drop its
   late result), and the ``_KILL`` drill kills whichever worker builds
   it (once, sentinel-gated).

Then it asserts: zero failed cells; every cell bit-identical to phase A
over ``RESULT_FIELDS``; the ``commit`` lines workers append to
``REPRO_EXEC_LOG`` name every cell exactly once; duplicate executions
at most deaths + steals + workers (the cells in flight at the phase-B
interrupt); worker deaths and lease steals in the ``fabric.*`` stats
and as trace instants; no manifest left behind.

Faults trigger on completed-cell counts and a seeded RNG picks the
victims, so a failing drill reproduces with the same ``--seed``.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.policies import named_policy
from repro.experiments.cache import RESULT_FIELDS, ResultCache
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE
from repro.fabric.fleet import Coordinator, run_fabric
from repro.recovery.manifest import cell_key, list_manifests

#: ``_KILL`` is deliberately LAST: phase B is interrupted after the
#: first commit, so the sentinel-armed kill reliably fires in phase C
DRILL_BENCHES = ("SPM_G", "FAM_G", "TB_LG", "SLM_G", "SPM_L", "_KILL")

_SRC = str(Path(__file__).resolve().parents[2])

#: the phase-B child: a real coordinator run that exits 128+signum on
#: interrupt, exactly like ``python -m repro fabric run``
_CHILD = """\
import sys

from repro.experiments.matrix import SweepInterrupted
from repro.fabric.chaos import drill_requests
from repro.fabric.fleet import run_fabric

try:
    run_fabric(drill_requests(), workers=int(sys.argv[1]),
               ttl=float(sys.argv[2]), checkpoint_root=sys.argv[3],
               fabric_root=sys.argv[4], trace=False)
except SweepInterrupted as exc:
    sys.exit(128 + exc.signum)
"""


def drill_requests() -> List[RunRequest]:
    """The drill sweep: cells that take seconds, so faults land
    mid-cell (quick-scale cells finish well inside the lease TTL)."""
    scenario = QUICK_SCALE.scaled(label="fabric-drill", iterations=4,
                                  episodes=16)
    return [RunRequest(bench, named_policy("awg"), scenario, validate=False)
            for bench in DRILL_BENCHES]


class ChaosSchedule:
    """The phase-C fault injector, called once per coordinator tick:
    SIGKILL a lease holder once ``kill_after`` cells are complete,
    SIGSTOP another once ``stall_after`` are, SIGCONT it
    ``stall_for`` seconds later. Victims are drawn from the live lease
    holders by a seeded RNG."""

    kill_after = 1
    stall_after = 2

    def __init__(self, seed: int = 0, ttl: float = 1.0):
        self.rng = Random(seed)
        #: stall comfortably past the TTL so the steal is guaranteed
        self.stall_for = ttl * 2.5
        self.killed = False
        self.stalled: Optional[int] = None
        self.stall_started = 0.0
        self.resumed = False

    def _strike(self, coordinator: Coordinator, signum: int) -> Optional[int]:
        """Signal one live lease holder (killing an idle worker proves
        nothing), matched by the lease record's pid: a resumed sweep
        still holds stale leases of the previous fleet."""
        pids = {(coordinator.dir.read_lease(key) or {}).get("pid")
                for key in coordinator.dir.live_leases()}
        slots = [i for i, slot in enumerate(coordinator.slots)
                 if slot.alive() and slot.proc.pid in pids]
        if not slots:
            return None
        victim = self.rng.choice(slots)
        coordinator.slots[victim].proc.send_signal(signum)
        return victim

    def __call__(self, coordinator: Coordinator) -> None:
        completed = len(coordinator.ckpt.completed)
        if not self.killed:
            if completed >= self.kill_after:
                self.killed = self._strike(coordinator,
                                           signal.SIGKILL) is not None
        elif self.stalled is None:
            if completed >= self.stall_after:
                self.stalled = self._strike(coordinator, signal.SIGSTOP)
                self.stall_started = time.monotonic()
        elif (not self.resumed
              and time.monotonic() - self.stall_started >= self.stall_for):
            slot = coordinator.slots[self.stalled]
            if slot.alive():
                slot.proc.send_signal(signal.SIGCONT)
            self.resumed = True


@dataclass
class DrillReport:
    """What the drill observed; ``ok`` means every assertion held."""

    workers: int
    seed: int
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    exec_counts: Dict[str, int] = field(default_factory=dict)
    duration: float = 0.0
    scratch: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        lines = [f"fabric chaos drill: {'PASS' if self.ok else 'FAIL'} "
                 f"(workers={self.workers}, seed={self.seed}, "
                 f"{self.duration:.1f}s)"]
        lines += [f"  {note}" for note in self.notes]
        lines += [f"  {key} = {value}"
                  for key, value in sorted(self.stats.items()) if value]
        if self.exec_counts:
            lines.append("  executions: " + ", ".join(
                f"{b}x{n}" for b, n in sorted(self.exec_counts.items())))
        lines += [f"  PROBLEM: {problem}" for problem in self.problems]
        if self.problems and self.scratch:
            lines.append(f"  evidence kept under {self.scratch}")
        return "\n".join(lines)


def _read_exec_log(log_path: Path) -> Tuple[Dict[str, int], List[str]]:
    """Executions per benchmark, and the cell key of every commit line."""
    counts: Dict[str, int] = {}
    committed: List[str] = []
    lines = log_path.read_text().splitlines() if log_path.exists() else []
    for fields in (line.split("\t") for line in lines):
        if fields[0] == "commit":
            committed.append(fields[1])
        else:
            counts[fields[0]] = counts.get(fields[0], 0) + 1
    return counts, committed


def _result_fields(result) -> Dict[str, Any]:
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def run_drill(
    workers: int = 4,
    seed: int = 0,
    ttl: float = 1.0,
    scratch: Optional[os.PathLike] = None,
    out: Optional[Callable[[str], None]] = None,
) -> DrillReport:
    """Run the three-phase chaos drill; see the module docstring.

    Checkpoints, fabric directory, cache and logs live under a temp
    directory, removed on success and kept as evidence on failure
    (always kept when ``scratch`` names a directory)."""
    say = out or (lambda _line: None)
    root = Path(scratch or tempfile.mkdtemp(prefix="repro-fabric-drill-"))
    root.mkdir(parents=True, exist_ok=True)
    report = DrillReport(workers=workers, seed=seed, scratch=str(root))
    started = time.monotonic()
    _drill(report, root, workers, seed, ttl, say)
    report.duration = time.monotonic() - started
    if report.ok and scratch is None:
        shutil.rmtree(root, ignore_errors=True)
        report.scratch = None
    return report


def _drill(report: DrillReport, root: Path, workers: int, seed: int,
           ttl: float, say: Callable[[str], None]) -> None:
    ckpt_root, fabric_root = root / "ckpt", root / "fabric"
    cache_dir, exec_log, sentinel = root / "cache", root / "exec.log", \
        root / "kill-me"
    requests = drill_requests()

    say(f"phase A: baseline run_matrix jobs=1 ({len(requests)} cells)")
    baseline = run_matrix(requests, jobs=1, cache=None, checkpoint=False)
    if baseline.errors:
        report.problems.append(
            f"baseline sweep failed: {baseline.errors[0].traceback}")
        return

    say(f"phase B: fleet of {workers}, SIGTERM the coordinator after "
        f"the first commit")
    env = dict(os.environ, REPRO_EXEC_LOG=str(exec_log),
               REPRO_CACHE_DIR=str(cache_dir), PYTHONPATH=os.pathsep.join(
                   p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_STRESS_KILL", None)
    script = root / "child_fabric.py"
    script.write_text(_CHILD)
    child = subprocess.Popen(
        [sys.executable, str(script), str(workers), str(ttl),
         str(ckpt_root), str(fabric_root)],
        env=env, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 120
    while (time.monotonic() < deadline and child.poll() is None
           and not any(cache_dir.glob("??/*.json"))):
        time.sleep(0.02)
    child.send_signal(signal.SIGTERM)
    _stdout, stderr = child.communicate(timeout=300)
    if child.returncode != 128 + signal.SIGTERM:
        report.problems.append(
            f"coordinator SIGTERM exited {child.returncode}, not "
            f"{128 + signal.SIGTERM} (stderr: "
            f"{stderr.decode(errors='replace')[-500:]})")
        return
    manifests = list_manifests(ckpt_root)
    if len(manifests) != 1:
        report.problems.append(f"interrupted sweep left {len(manifests)} "
                               f"manifests, expected 1 (resumable)")
        return
    report.notes.append(
        f"phase B: interrupted with {manifests[0]['completed']} cells "
        f"checkpointed, exit {child.returncode}")

    cache = ResultCache(cache_dir)
    kill_spec = next(r for r in requests if r.benchmark == "_KILL").spec()
    arm_kill = cache.key_for(kill_spec) not in cache
    extra_env = {"REPRO_EXEC_LOG": str(exec_log),
                 "REPRO_CACHE_DIR": str(cache_dir)}
    if arm_kill:
        sentinel.write_text("")
        extra_env["REPRO_STRESS_KILL"] = str(sentinel)
    say("phase C: resume with seeded SIGKILL + SIGSTOP stall"
        + (" + _KILL sentinel" if arm_kill else ""))
    chaos = ChaosSchedule(seed=seed, ttl=ttl)
    result = run_fabric(requests, workers=workers, ttl=ttl,
                        checkpoint_root=ckpt_root, fabric_root=fabric_root,
                        cache=cache, on_tick=chaos,
                        supervisor_kw={"extra_env": extra_env})
    report.stats = dict(result.stats)
    report.exec_counts, committed = _read_exec_log(exec_log)
    say(result.summary())

    problems = report.problems
    if result.errors:
        problems.append(f"{len(result.errors)} cells failed; first: "
                        f"{result.errors[0].traceback[-300:]}")
    for index, request in enumerate(requests):
        if result.cells[index].result is None:
            problems.append(f"cell {index} ({request.benchmark}) has no "
                            f"result")
        elif _result_fields(result[index]) != \
                _result_fields(baseline[index]):
            problems.append(f"cell {index} ({request.benchmark}) diverged "
                            f"from the jobs=1 baseline")
    if sorted(committed) != sorted(set(committed)):
        problems.append("the exec log records a cell committed twice "
                        "(exactly-once commit violated)")
    keys = {cell_key(request.spec()) for request in requests}
    if set(committed) != keys:
        problems.append(f"the exec log's commit lines cover "
                        f"{len(set(committed))}/{len(keys)} cells")
    if not chaos.killed:
        problems.append("chaos SIGKILL never fired")
    if chaos.stalled is None:
        problems.append("chaos SIGSTOP stall never engaged")
    if arm_kill and sentinel.exists():
        problems.append("_KILL sentinel never consumed")
    deaths = report.stats.get("fabric.worker.deaths", 0)
    steals = report.stats.get("fabric.lease.stolen", 0)
    if deaths < 1 + arm_kill:
        problems.append(f"expected >= {1 + arm_kill} worker deaths, "
                        f"stats saw {deaths}")
    if steals < 1:
        problems.append("no lease steal recorded despite a SIGKILLed "
                        "lease holder")
    missing = [b for b in DRILL_BENCHES if b not in report.exec_counts]
    if missing:
        problems.append(f"cells never executed by the fleet: {missing}")
    extra = sum(n - 1 for n in report.exec_counts.values())
    allowed = deaths + steals + workers  # + cells abandoned at SIGTERM
    if extra > allowed:
        problems.append(f"{extra} duplicate executions exceed the "
                        f"{allowed} explainable by deaths/steals/interrupt")
    names = {e.get("name") for e in (result.trace or {}).get(
        "traceEvents", [])}
    for required in ("lease.stolen", "worker.death", "cell.commit"):
        if required not in names:
            problems.append(f"trace instants missing {required!r}")
    if list_manifests(ckpt_root):
        problems.append("completed sweep left its manifest behind")
