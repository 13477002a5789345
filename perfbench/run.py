"""The repository benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sim --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``warm_s``,
``setup_s``, ``peak_rss_mb``, ``cells_passed_frac``) with nothing
wrapped; ``--trace 1`` is the separate traced run that splits host time
across the simulator's layers (see ``perfbench/layers.py``), writes the
spans as a Chrome ``trace_event`` file under ``.perfbench/traces/`` and
reports its own overhead. Every metric is printed with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only if every cell ran, validated and matched its pinned result.

``--update-pins`` rewrites ``perfbench/pins/`` from a run at the default
seed (for a change that deliberately alters simulated results).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = ROOT / ".perfbench"
PINS = HERE / "pins"

WORKLOADS = ("paper-sim", "oversub-spill", "figures-quick")
#: ``Scenario.seed``'s default: the seed the pins were made at
DEFAULT_SEED = 1
#: the figures-quick workload, as a user runs it
FIGURES_CMD = [sys.executable, "-m", "repro", "all", "--quick", "--jobs", "2"]
#: warm CLI passes per figures-quick round; warm time is their median
FIGURE_WARM_PER_ROUND = 3
#: how often the CLI's process tree is sampled for peak memory
RSS_POLL_S = 0.2
#: every child must end by then, so the run ends within 180 s
DEADLINE_S = 170.0

class BenchError(Exception):
    """The benchmark could not run (not a failing cell)."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    """Hermetic environment: no inherited ``REPRO_*`` knob changes what
    runs, temp files stay inside the checkout, and bytecode is cached
    under ``.perfbench/`` whatever the caller's settings, so every
    process imports the way an installed copy would."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(ROOT)
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def _tree_rss_kib(root_pid: int) -> int:
    """Summed peak RSS (VmHWM) of ``root_pid`` and its live descendants
    (pids are allocated upwards, so only newer pids are candidates)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) <= root_pid:
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = {root_pid}
    for pid in sorted(parents):  # a child's pid is above its parent's
        if parents[pid] in tree:
            tree.add(pid)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


def _run(cmds: List[Tuple[List[str], Dict[str, str]]], deadline: float,
         capture: bool = False, poll_rss: bool = False
         ) -> List[Tuple[int, str, float, float]]:
    """Run commands side by side, each in its own process group, and
    wait for all; kill every group if one outlives ``deadline``. Returns
    per command (exit code, stdout, wall seconds, peak tree RSS in MiB
    when ``poll_rss``)."""
    started = time.perf_counter()
    procs = [subprocess.Popen(
        cmd, cwd=ROOT, env=env, start_new_session=True,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
        for cmd, env in cmds]
    peaks = [0] * len(procs)
    done = threading.Event()

    def poll() -> None:
        while not done.wait(RSS_POLL_S):
            for i, proc in enumerate(procs):
                peaks[i] = max(peaks[i], _tree_rss_kib(proc.pid))

    poller = threading.Thread(target=poll, daemon=True) if poll_rss else None
    if poller is not None:
        poller.start()
    results = []
    try:
        for proc in procs:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            results.append((proc.returncode,
                            out.decode() if capture else "",
                            time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        raise BenchError(f"{' '.join(cmds[0][0][1:4])} outlived the run "
                         "deadline")
    finally:
        done.set()
        if poller is not None:
            poller.join()
    return [(code, out, wall, peak / 1024)
            for (code, out, wall), peak in zip(results, peaks)]


def _children(modes: List[str], workload: str, seed: int, budget: float,
              run_dir: Path, deadline: float) -> List[Dict[str, Any]]:
    """Run ``perfbench/workloads.py`` children side by side."""
    outs = [run_dir / f"{mode}.json" for mode in modes]
    env = _child_env()
    cmds = [([sys.executable, str(HERE / "workloads.py"), mode, workload,
              str(seed), str(budget), str(out)], env)
            for mode, out in zip(modes, outs)]
    for mode, (code, _, _, _) in zip(modes, _run(cmds, deadline)):
        if code != 0:
            raise BenchError(f"{mode} pass of {workload} exited {code}")
    return [json.loads(out.read_text()) for out in outs]


def _child(mode: str, workload: str, seed: int, budget: float,
           run_dir: Path, deadline: float) -> Dict[str, Any]:
    return _children([mode], workload, seed, budget, run_dir, deadline)[0]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _load_pin(workload: str) -> Any:
    path = PINS / (f"{workload}.txt" if workload == "figures-quick"
                   else f"{workload}.json")
    if not path.is_file():
        raise BenchError(f"missing pin {path.relative_to(ROOT)}")
    text = path.read_text()
    return text if workload == "figures-quick" else json.loads(text)


def _check_cells(workload: str, seed: int, child: Dict[str, Any],
                 failures: Dict[str, str]) -> None:
    """Fold pinned-digest mismatches into ``failures`` (default seed
    only: on any other seed a cell must only complete and validate)."""
    failures.update(child["failures"])
    if seed != DEFAULT_SEED:
        return
    pinned = _load_pin(workload)["cells"]
    for cell in child["cells"]:
        got = child["digests"].get(cell)
        if got is not None and got != pinned.get(cell):
            failures.setdefault(cell, "simulated result differs from pin")


def _check_sections(pinned: str, stdout: str, label: str,
                    failures: Dict[str, str]) -> None:
    """Compare figure sections against the pinned output."""
    from workloads import figure_sections

    want = figure_sections(pinned)
    got = figure_sections(stdout)
    for name, section in want.items():
        if got.get(name, {}).get("text") != section["text"]:
            failures.setdefault(name, f"{label} output differs from pin")


def _section_weights(pinned: str) -> Dict[str, int]:
    from workloads import figure_sections

    return {k: v["cells"] for k, v in figure_sections(pinned).items()}


def _fingerprint() -> str:
    """Hash of the simulator and benchmark sources: counters recorded
    under one fingerprint must repeat exactly under it."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts(workload: str, seed: int, metrics: Dict[str, float],
                  failures: Dict[str, str]) -> None:
    """Every count of a traced run must equal the first recorded traced run of
    the same code, workload and seed in this checkout."""
    from layers import COUNTERS

    counts = {k: v for k, v in metrics.items()
              if k.endswith(".calls") or k in COUNTERS}
    path = STATE / "counters" / _fingerprint() / f"{workload}-{seed}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        for key in sorted(counts):
            if before.get(key) != counts[key]:
                failures.setdefault(
                    f"count {key}",
                    f"{before.get(key)} before, {counts[key]} now: "
                    "the run is no longer deterministic")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _cell_workload(workload: str, seed: int, seconds: float,
                   run_dir: Path, deadline: float
                   ) -> Tuple[Dict[str, float], Dict[str, int],
                              Dict[str, str]]:
    child = _child("sim", workload, seed, seconds, run_dir, deadline)
    failures: Dict[str, str] = {}
    _check_cells(workload, seed, child, failures)
    for cell in child["warm_mismatched"]:
        failures.setdefault(cell, "warm pass returned different results")
    metrics = {key: child[key]
               for key in ("wall_s", "warm_s", "setup_s", "peak_rss_mb")}
    return metrics, dict.fromkeys(child["cells"], 1), failures


def _figures_workload(seed: int, seconds: float, run_dir: Path,
                      deadline: float
                      ) -> Tuple[Dict[str, float], Dict[str, int],
                                 Dict[str, str]]:
    import workloads

    pinned = _load_pin("figures-quick")
    env = _child_env()
    failures: Dict[str, str] = {}
    cold: List[float] = []
    warm: List[float] = []
    rss = 0.0
    rounds = 1
    while len(cold) < rounds:
        # a round: a cold pass on a fresh result cache, so every cell not
        # shared with an earlier figure simulates, then warm passes on it
        env["REPRO_CACHE_DIR"] = str(run_dir / f"cache{len(cold)}")
        [(code, stdout, wall, peak)] = _run(
            [(FIGURES_CMD, env)], deadline, capture=True, poll_rss=True)
        if code != 0:
            failures["repro all"] = f"cold pass exited {code}"
        _check_sections(pinned, stdout, "cold", failures)
        cold.append(wall)
        rss = max(rss, peak)
        rounds = workloads.passes(seconds, cold[0])
        for _ in range(FIGURE_WARM_PER_ROUND):
            [(code, stdout, wall, _)] = _run([(FIGURES_CMD, env)], deadline,
                                             capture=True)
            if code != 0:
                failures["repro all (warm)"] = f"warm pass exited {code}"
            _check_sections(pinned, stdout, "warm", failures)
            warm.append(wall)
    setup = _child("setup", "figures-quick", seed, seconds, run_dir, deadline)
    metrics = {
        "wall_s": statistics.median(cold),
        "warm_s": statistics.median(warm),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss,
    }
    return metrics, _section_weights(pinned), failures


def _failed_cells(failures: Dict[str, str], weights: Dict[str, int]) -> int:
    """``weights`` maps each cell, or each figure to its cells. A failure
    of one of them fails its cells; any other failure (a nonzero exit, a
    count that did not repeat, a bad trace) fails every cell."""
    if any(key not in weights for key in failures):
        return sum(weights.values())
    return sum(weights[key] for key in failures)


def _traced(workload: str, seed: int, seconds: float, run_dir: Path,
            deadline: float
            ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, str]]:
    """The traced run. Its untraced reference runs side by side with it
    (two single-threaded processes on two cores), which keeps the figure
    CLI's in-process one-job run inside the run deadline."""
    traced, reference = _children(["trace", "reference"], workload, seed,
                                  seconds, run_dir, deadline)
    failures: Dict[str, str] = {}
    if workload == "figures-quick":
        pinned = _load_pin(workload)
        _check_sections(pinned, reference["stdout"], "untraced", failures)
        _check_sections(pinned, traced["stdout"], "traced", failures)
        weights = _section_weights(pinned)
    else:
        _check_cells(workload, seed, traced, failures)
        failures.update(reference["failures"])
        for cell, want in reference["digests"].items():
            if traced["digests"].get(cell) != want:
                failures.setdefault(
                    cell, "traced pass simulated different results")
        weights = dict.fromkeys(traced["cells"], 1)
    metrics = traced["metrics"]
    metrics["trace.untraced_wall_s"] = reference["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - reference["wall_s"]
    _check_counts(workload, seed, metrics, failures)
    traces = STATE / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace = traces / f"{workload}-seed{seed}.json"
    shutil.copyfile(traced["trace_file"], trace)
    [(code, _, _, _)] = _run([([sys.executable, "-m", "repro.trace.export",
                                str(trace)], _child_env())], deadline)
    if code != 0:
        failures["<trace>"] = f"{trace} is not a valid trace_event file"
    print(f"trace: {trace.relative_to(ROOT)}", file=sys.stderr)
    return metrics, weights, failures


def _declared_units(kind: str) -> Dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _update_pins(workload: str, run_dir: Path, deadline: float) -> None:
    PINS.mkdir(exist_ok=True)
    if workload == "figures-quick":
        env = _child_env()
        env["REPRO_CACHE_DIR"] = str(run_dir / "cache-pin")
        [(code, stdout, _, _)] = _run([(FIGURES_CMD, env)], deadline,
                                      capture=True)
        if code != 0:
            raise BenchError(f"repro all exited {code}")
        from workloads import MARKER

        # timings vary run to run; the pin keeps only the section markers
        (PINS / "figures-quick.txt").write_text(
            MARKER.sub(r"[\1: 0.0s]", stdout))
        return
    child = _child("sim", workload, DEFAULT_SEED, 0.0, run_dir, deadline)
    if child["failures"]:
        raise BenchError(f"refusing to pin failing cells: "
                         f"{sorted(child['failures'])}")
    (PINS / f"{workload}.json").write_text(json.dumps(
        {"seed": DEFAULT_SEED, "cells": child["digests"]},
        indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true")
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro/ not "
              f"found under {ROOT})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    run_dir = STATE / "runs" / f"{opts.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        # the build: byte-compile up front, so the first run in a fresh
        # checkout times the same imports as every later one
        [(code, _, _, _)] = _run([([sys.executable, "-m", "compileall", "-q",
                                    "src", str(HERE)], _child_env())],
                                 deadline)
        if code != 0:
            raise BenchError(f"compileall exited {code}")
        if opts.update_pins:
            _update_pins(opts.workload, run_dir, deadline)
            return 0
        if opts.trace:
            metrics, weights, failures = _traced(
                opts.workload, opts.seed, opts.seconds, run_dir, deadline)
        elif opts.workload == "figures-quick":
            metrics, weights, failures = _figures_workload(
                opts.seed, opts.seconds, run_dir, deadline)
        else:
            metrics, weights, failures = _cell_workload(
                opts.workload, opts.seed, opts.seconds, run_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(weights.values())
    failed = _failed_cells(failures, weights)
    if not opts.trace:
        metrics["cells_passed_frac"] = (attempted - failed) / attempted
    units = _declared_units("per_layer" if opts.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"perfbench: measured {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for key, why in sorted(failures.items()):
        print(f"FAILED {key}: {why.strip().splitlines()[-1]}")
    for key, value in metrics.items():
        print(f"{opts.workload} {key}: {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
