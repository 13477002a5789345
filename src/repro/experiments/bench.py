"""Continuous performance benchmark harness (``python -m repro bench``).

Runs a fixed suite and writes ``BENCH_<n>.json`` at the repo root so the
project accumulates a *perf trajectory* — one JSON per landed perf PR —
instead of unmeasured speedup claims. The suite has three parts:

1. **Engine-core microbenchmarks** — pure scheduler loops (no GPU
   model) timed under both engines. The ``wide_drain_*`` entries are
   *scheduler-bound*: they time draining a large pending population,
   the pop path where the calendar queue's O(1) buckets beat the
   heap's O(log n) sift. These carry the headline speedup.
2. **Workload cells** — 3 benchmarks × 3 policies, simulated cycles
   per wall-second under both engines. Real workloads spend most of
   their time in generator dispatch and the memory/policy models (the
   engine is ~25% of their profile), so these speedups are Amdahl-
   capped near 1× and are reported honestly as such.
3. **One fig7 sweep** — end-to-end wall-clock of a multi-cell
   experiment under the default engine, the number a person doing a
   sweep actually waits on.
4. **Fabric scale row** — the same cell list through the distributed
   sweep fabric at 1/2/4 workers vs a plain in-process ``jobs=1`` run,
   cold cache and fresh directories each time, so the trajectory
   records what the lease/commit/heartbeat machinery costs (and what a
   small fleet buys) honestly. Wall-clock only, never gated.

Absolute events/sec and cycles/sec are machine-dependent, so the
regression gate compares only the engine-relative *speedup ratios*
(calendar vs reference on identical work) against the newest committed
``BENCH_*.json``; a ratio dropping more than the noise threshold
(default 20%) fails the run. Wall-clock numbers are recorded for the
trajectory but never gated.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.policies import awg, monnr_one, timeout
from repro.experiments.runner import (
    PAPER_SCALE, QUICK_SCALE, Scenario, run_benchmark,
)
from repro.sim.engine import engine_kind, make_engine

#: engines measured against each other; "calendar" is the default
ENGINES = ("reference", "calendar")

#: suite workload cells: the golden-corpus benchmarks under one timeout
#: policy and the two headline monitor policies
WORKLOAD_BENCHMARKS = ("SPM_G", "FAM_G", "TB_LG")
WORKLOAD_POLICIES = (timeout(20_000), monnr_one(), awg())

#: a ratio may drop this much vs the previous BENCH_*.json before the
#: gate fails the run (two smoke runs of the same commit jitter ~10%)
NOISE_THRESHOLD = 0.20

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


# ---------------------------------------------------------------------
# part 1: engine-core microbenchmarks
# ---------------------------------------------------------------------

def _noop() -> None:
    pass


def _micro_wide_drain(env, n: int, spread: int) -> Tuple[int, float]:
    """Drain ``n`` pending events spread over ``spread`` cycles.

    The population is built untimed; only the drain is measured. This
    is the scheduler-bound pop path: the heap pays O(log n) per pop,
    the calendar queue O(1) per bucket entry.
    """
    for i in range(n):
        env.call_at(1 + (i % spread), _noop)
    start = perf_counter()
    env.run()
    return n, perf_counter() - start


def _micro_cancel_churn(env, ticks: int) -> Tuple[int, float]:
    """Schedule/cancel churn: every driver tick schedules far-future
    timeouts that are cancelled before firing (the preemption-storm
    pattern the lazy-deletion compactor exists for)."""
    live: List[Any] = []
    state = {"remaining": ticks}

    def tick(_ev=None) -> None:
        if state["remaining"] <= 0:
            return
        state["remaining"] -= 1
        env.timeout(10).add_callback(tick)
        for _ in range(4):
            live.append(env.timeout(1_000_000))  # far future: never fires
        while len(live) > 64:
            live.pop(0).cancel()

    env.call_at(1, tick)
    start = perf_counter()
    env.run()
    return env.metrics()["fired"], perf_counter() - start


def _micro_same_cycle_dense(env, cycles: int, per_cycle: int) -> Tuple[int, float]:
    """Many events per timestamp: the batched-drain fast path."""
    for t in range(1, cycles + 1):
        for _ in range(per_cycle):
            env.call_at(t, _noop)
    start = perf_counter()
    env.run()
    return cycles * per_cycle, perf_counter() - start


def _micro_zero_delay_chains(env, chains: int, depth: int) -> Tuple[int, float]:
    """delay=0 continuation chains: process starts and notify cascades."""
    remaining = {"n": 0}

    def link() -> None:
        if remaining["n"] > 0:
            remaining["n"] -= 1
            env.timeout(0).add_callback(lambda _ev: link())

    def start_chain(at: int) -> None:
        remaining["n"] += depth
        env.call_at(at, link)

    for i in range(chains):
        start_chain(1 + i)
    start = perf_counter()
    env.run()
    return chains * depth, perf_counter() - start


def _micro_suite(smoke: bool) -> Dict[str, Tuple[Callable, tuple, bool]]:
    """name -> (fn, args, scheduler_bound). Smoke drops the largest
    entry; shared entries keep identical scales so the CI gate compares
    like against like."""
    suite: Dict[str, Tuple[Callable, tuple, bool]] = {
        "wide_drain_200k": (_micro_wide_drain, (200_000, 1_000), True),
        "cancel_churn": (_micro_cancel_churn, (60_000,), False),
        "same_cycle_dense": (_micro_same_cycle_dense, (2_000, 50), False),
        "zero_delay_chains": (_micro_zero_delay_chains, (2_000, 40), False),
    }
    if not smoke:
        suite["wide_drain_500k"] = (_micro_wide_drain, (500_000, 2_000), True)
    return suite


def _run_micro(smoke: bool, repeats: int) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for name, (fn, args, sched_bound) in _micro_suite(smoke).items():
        entry: Dict[str, Any] = {
            "scheduler_bound": sched_bound,
            "events": 0,
            "seconds": {},
            "events_per_sec": {},
        }
        for kind in ENGINES:
            best = math.inf
            events = 0
            for _ in range(repeats):
                env = make_engine(kind)
                events, seconds = fn(env, *args)
                best = min(best, seconds)
            entry["events"] = events
            entry["seconds"][kind] = round(best, 6)
            entry["events_per_sec"][kind] = round(events / best, 1)
        entry["speedup"] = round(
            entry["seconds"]["reference"] / entry["seconds"]["calendar"], 3
        )
        out[name] = entry
    return out


# ---------------------------------------------------------------------
# part 2: workload cells (cycles per wall-second, both engines)
# ---------------------------------------------------------------------

def _run_workloads(
    scenario: Scenario, repeats: int
) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    saved = os.environ.get("REPRO_ENGINE")
    try:
        for bench in WORKLOAD_BENCHMARKS:
            for policy in WORKLOAD_POLICIES:
                cell = f"{bench}/{policy.name}"
                entry: Dict[str, Any] = {
                    "scenario": scenario.label,
                    "cycles": 0,
                    "seconds": {},
                    "cycles_per_sec": {},
                }
                cycles_by_kind: Dict[str, int] = {}
                for kind in ENGINES:
                    os.environ["REPRO_ENGINE"] = kind
                    best = math.inf
                    for _ in range(repeats):
                        start = perf_counter()
                        res = run_benchmark(bench, policy, scenario)
                        best = min(best, perf_counter() - start)
                    cycles_by_kind[kind] = res.cycles
                    entry["seconds"][kind] = round(best, 4)
                    entry["cycles_per_sec"][kind] = round(res.cycles / best, 1)
                if cycles_by_kind["reference"] != cycles_by_kind["calendar"]:
                    raise AssertionError(
                        f"{cell}: engines disagree on simulated cycles "
                        f"({cycles_by_kind}) — determinism bug, numbers "
                        f"would be meaningless"
                    )
                entry["cycles"] = cycles_by_kind["calendar"]
                entry["speedup"] = round(
                    entry["seconds"]["reference"]
                    / entry["seconds"]["calendar"], 3
                )
                out[cell] = entry
    finally:
        if saved is None:
            os.environ.pop("REPRO_ENGINE", None)
        else:
            os.environ["REPRO_ENGINE"] = saved
    return out


# ---------------------------------------------------------------------
# part 3: one fig7 sweep, wall-clock
# ---------------------------------------------------------------------

def _run_fig7(smoke: bool) -> Dict[str, Any]:
    from repro.experiments import fig7

    intervals = [1_000, 64_000] if smoke else [1_000, 8_000, 64_000]
    start = perf_counter()
    fig7.run(QUICK_SCALE, intervals=intervals, jobs=1, cache=None)
    wall = perf_counter() - start
    return {
        "scenario": QUICK_SCALE.label,
        "intervals": intervals,
        "engine": engine_kind(),
        "wall_seconds": round(wall, 3),
    }


# ---------------------------------------------------------------------
# part 4: fabric scale row (fleet overhead/speedup vs one process)
# ---------------------------------------------------------------------

#: worker counts for the fabric scale row
FABRIC_WORKERS = (1, 2, 4)


def _run_fabric_scale(smoke: bool) -> Dict[str, Any]:
    import shutil
    import tempfile

    from repro.experiments.matrix import RunRequest, run_matrix
    from repro.fabric.fleet import run_fabric

    scenario = (QUICK_SCALE.scaled(label="bench-fabric", iterations=6,
                                   episodes=24)
                if smoke else QUICK_SCALE)
    requests = [
        RunRequest(bench, policy, scenario, validate=False)
        for bench in WORKLOAD_BENCHMARKS
        for policy in (awg(), monnr_one())
    ]
    start = perf_counter()
    run_matrix(requests, jobs=1, cache=None, checkpoint=False)
    single = perf_counter() - start
    entry: Dict[str, Any] = {
        "scenario": scenario.label,
        "cells": len(requests),
        "single_process_seconds": round(single, 3),
        "workers": {},
    }
    for workers in FABRIC_WORKERS:
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-fabric-"))
        try:
            start = perf_counter()
            outcome = run_fabric(
                requests, workers=workers,
                checkpoint_root=scratch / "ckpt",
                fabric_root=scratch / "fab",
                cache=None, trace=False,
            )
            wall = perf_counter() - start
            if not outcome.ok:
                raise AssertionError(
                    f"fabric bench sweep failed at workers={workers}: "
                    f"{outcome.errors[0].traceback}")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        entry["workers"][str(workers)] = {
            "wall_seconds": round(wall, 3),
            "speedup_vs_single": round(single / wall, 3),
            "overhead_seconds": round(wall - single, 3),
        }
    return entry


# ---------------------------------------------------------------------
# part 5: durability-gateway overhead (disarmed interposition cost)
# ---------------------------------------------------------------------

def _time_atomic_writes(write_one: Callable[[Path, str], None],
                        root: Path, text: str, count: int) -> float:
    start = perf_counter()
    for i in range(count):
        write_one(root / f"entry-{i % 8}.json", text)
    return perf_counter() - start


def _raw_atomic_write(path: Path, text: str) -> None:
    """The pre-gateway discipline, inlined: the honest baseline."""
    tmp = path.with_name(f".{path.name}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
    try:
        os.write(fd, text.encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def _run_durability_overhead(smoke: bool) -> Dict[str, Any]:
    """Disarmed-gateway cost on the atomic-write discipline every
    durable store uses. Each ``v*`` op is one ``is None`` check over
    the raw ``os`` call, and the loop is fsync-bound anyway, so the
    honest expectation is ~1.00×; the row exists so the trajectory
    would catch the gateway ever growing a real disarmed cost. The
    engine micro suite (part 1) does no I/O at all — the gate over its
    ratios is the ≤2% proof for the simulation hot path. Recorded,
    never gated (wall-clock I/O on shared runners is noisy)."""
    import shutil
    import tempfile

    from repro.durability import vfs

    assert vfs.current_gateway() is None, "bench must run disarmed"
    count = 150 if smoke else 600
    text = json.dumps({"result": {"cycles": 123456, "stats":
                                  {f"k{i}": i * 0.5 for i in range(40)}},
                       "digest": "d" * 64}, sort_keys=True)
    best: Dict[str, float] = {}
    for _ in range(3):
        scratch = Path(tempfile.mkdtemp(prefix="repro-bench-durability-"))
        _prepare_overhead_dirs(scratch)
        try:
            raw = _time_atomic_writes(_raw_atomic_write,
                                      scratch / "raw", text, count)
            gated = _time_atomic_writes(
                lambda p, t: vfs.write_atomic_text(p, t),
                scratch / "vfs", text, count)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        best["raw"] = min(best.get("raw", raw), raw)
        best["gateway"] = min(best.get("gateway", gated), gated)
    return {
        "writes": count,
        "payload_bytes": len(text),
        "raw_os_seconds": round(best["raw"], 4),
        "gateway_disarmed_seconds": round(best["gateway"], 4),
        "overhead_ratio": round(best["gateway"] / best["raw"], 3),
    }


def _prepare_overhead_dirs(root: Path) -> None:
    (root / "raw").mkdir(parents=True, exist_ok=True)
    (root / "vfs").mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------
# document assembly, trajectory, regression gate
# ---------------------------------------------------------------------

def _git_commit(root: Path) -> Optional[str]:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=root,
            stderr=subprocess.DEVNULL,
        ).decode().strip()
    except Exception:
        return None


def _environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(repo_root()),
        "engine_default": engine_kind(),
    }


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return round(math.exp(sum(math.log(v) for v in values) / len(values)), 3)


def _headline(micro: Dict[str, Dict], workloads: Dict[str, Dict]) -> Dict:
    sched = [e["speedup"] for e in micro.values() if e["scheduler_bound"]]
    return {
        #: the acceptance number: calendar vs reference on the
        #: scheduler-bound suite entries (the code the PR replaced)
        "scheduler_bound_speedup": _geomean(sched),
        "engine_micro_speedup": _geomean(
            [e["speedup"] for e in micro.values()]),
        "workload_speedup": _geomean(
            [e["speedup"] for e in workloads.values()]),
    }


def existing_series(root: Path) -> List[Tuple[int, Path]]:
    """(series, path) for every BENCH_*.json at the repo root, sorted."""
    out = []
    for path in root.iterdir():
        match = _BENCH_RE.match(path.name)
        if match:
            out.append((int(match.group(1)), path))
    return sorted(out)


def _speedup_fields(doc: Dict[str, Any]) -> Dict[str, float]:
    """Flat name -> speedup-ratio mapping of everything the gate tracks.

    Keys encode the measurement scale (micro entries carry it in their
    name; workload cells are suffixed with their scenario label), so a
    smoke run never compares a quick-scale ratio against a committed
    paper-scale one — only like-for-like entries gate. Headline
    geomeans are excluded: their entry composition differs between
    smoke and full runs.
    """
    out: Dict[str, float] = {}
    suite = doc.get("suite", {})
    for name, entry in suite.get("engine_micro", {}).items():
        value = entry.get("speedup")
        if isinstance(value, (int, float)):
            out[f"engine_micro.{name}"] = float(value)
    for name, entry in suite.get("workloads", {}).items():
        value = entry.get("speedup")
        if isinstance(value, (int, float)):
            out[f"workloads.{name}@{entry.get('scenario')}"] = float(value)
    return out


def check_regressions(
    current: Dict[str, Any],
    previous: Dict[str, Any],
    threshold: float = NOISE_THRESHOLD,
) -> List[str]:
    """Speedup ratios that dropped more than ``threshold`` vs the
    previous document. Only keys present in both are compared, so a
    smoke run gates cleanly against a committed full run."""
    prev = _speedup_fields(previous)
    cur = _speedup_fields(current)
    failures = []
    for name in sorted(set(prev) & set(cur)):
        if cur[name] < prev[name] * (1.0 - threshold):
            failures.append(
                f"{name}: speedup {cur[name]:.3f} is "
                f"{(1 - cur[name] / prev[name]) * 100:.0f}% below the "
                f"previous {prev[name]:.3f} (threshold "
                f"{threshold * 100:.0f}%)"
            )
    return failures


def run_bench(
    smoke: bool = False,
    series: Optional[int] = None,
    out: Optional[str] = None,
    threshold: float = NOISE_THRESHOLD,
) -> Tuple[Dict[str, Any], Optional[Path], List[str]]:
    """Run the suite; returns (document, path written, gate failures)."""
    root = repo_root()
    prior = existing_series(root)
    if series is None:
        series = prior[-1][0] + 1 if prior else 6

    micro = _run_micro(smoke, repeats=5)
    scenario = QUICK_SCALE if smoke else PAPER_SCALE
    workloads = _run_workloads(scenario, repeats=3 if smoke else 2)
    fig7_result = _run_fig7(smoke)
    fabric_result = _run_fabric_scale(smoke)
    durability_result = _run_durability_overhead(smoke)

    doc: Dict[str, Any] = {
        "schema": 1,
        "series": series,
        "smoke": smoke,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": _environment(),
        "suite": {
            "engine_micro": micro,
            "workloads": workloads,
            "fig7": fig7_result,
            "fabric": fabric_result,
            "durability": durability_result,
        },
        "headline": _headline(micro, workloads),
    }

    failures: List[str] = []
    baseline = [(n, p) for n, p in prior if n != series]
    if baseline:
        prev_series, prev_path = baseline[-1]
        doc["compared_against"] = prev_path.name
        with open(prev_path) as fh:
            failures = check_regressions(doc, json.load(fh), threshold)
        if failures:
            doc["regressions"] = failures

    path = Path(out) if out else root / f"BENCH_{series}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc, path, failures


def render(doc: Dict[str, Any]) -> str:
    lines = [
        f"BENCH series {doc['series']}"
        f"{' (smoke)' if doc['smoke'] else ''} — "
        f"default engine: {doc['environment']['engine_default']}",
        "",
        "engine micro (events/sec, best-of-N):",
    ]
    for name, e in doc["suite"]["engine_micro"].items():
        tag = "  [scheduler-bound]" if e["scheduler_bound"] else ""
        lines.append(
            f"  {name:<18} ref {e['events_per_sec']['reference']:>12,.0f}"
            f"  cal {e['events_per_sec']['calendar']:>12,.0f}"
            f"  speedup {e['speedup']:.2f}x{tag}"
        )
    lines.append("")
    lines.append("workloads (simulated cycles/sec):")
    for name, e in doc["suite"]["workloads"].items():
        lines.append(
            f"  {name:<22} ref {e['cycles_per_sec']['reference']:>12,.0f}"
            f"  cal {e['cycles_per_sec']['calendar']:>12,.0f}"
            f"  speedup {e['speedup']:.2f}x"
        )
    fig = doc["suite"]["fig7"]
    lines.append("")
    lines.append(
        f"fig7 sweep [{fig['scenario']}, {len(fig['intervals'])} "
        f"intervals]: {fig['wall_seconds']:.1f}s wall"
    )
    fab = doc["suite"].get("fabric")
    if fab:
        lines.append("")
        lines.append(
            f"fabric scale [{fab['scenario']}, {fab['cells']} cells, "
            f"single-process {fab['single_process_seconds']:.1f}s]:"
        )
        for workers, e in fab["workers"].items():
            lines.append(
                f"  workers={workers:<3} {e['wall_seconds']:>7.1f}s wall"
                f"  speedup {e['speedup_vs_single']:.2f}x vs jobs=1"
            )
    dur = doc["suite"].get("durability")
    if dur:
        lines.append("")
        lines.append(
            f"durability gateway, disarmed [{dur['writes']} atomic "
            f"writes of {dur['payload_bytes']}B]: raw os "
            f"{dur['raw_os_seconds']:.3f}s, gateway "
            f"{dur['gateway_disarmed_seconds']:.3f}s, overhead "
            f"{dur['overhead_ratio']:.2f}x (recorded, never gated)"
        )
    head = doc["headline"]
    lines.append("")
    lines.append(
        f"headline: scheduler-bound {head['scheduler_bound_speedup']}x, "
        f"all-micro {head['engine_micro_speedup']}x, "
        f"workloads {head['workload_speedup']}x"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser(
        description="continuous engine benchmark -> BENCH_<n>.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--series", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--threshold", type=float, default=NOISE_THRESHOLD)
    opts = parser.parse_args(argv)
    doc, path, failures = run_bench(
        smoke=opts.smoke, series=opts.series, out=opts.out,
        threshold=opts.threshold,
    )
    print(render(doc))
    print(f"\nwrote {path}")
    if failures:
        print(f"\nREGRESSION vs {doc.get('compared_against')}:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
