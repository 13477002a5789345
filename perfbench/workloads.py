"""The benchmark's workloads and the passes one benchmark run makes.

``paper-sim`` and ``oversub-spill`` are lists of simulation cells run in
one process through :func:`repro.experiments.runner.run_benchmark`;
``figures-quick`` is the ``python -m repro all --quick`` CLI. This module
runs inside a child process of ``perfbench/run.py`` (so each workload's
peak memory is its own) and writes what it measured as JSON::

    python3 perfbench/workloads.py MODE WORKLOAD SEED BUDGET_S OUT.json

MODE is ``sim`` (measured, warm and set-up passes of a cell workload),
``setup`` (set-up passes only), ``trace`` (the workload under
:class:`perfbench.layers.LayerTracer`; the figure CLI runs in-process
with one job so the wrappers see every cell) or ``reference`` (the
traced work with nothing wrapped).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.policies import awg, monnr_one, monrs_all, timeout
from repro.experiments import matrix, runner
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import OVERSUBSCRIBED, PAPER_SCALE, QUICK_SCALE
from repro.gpu.gpu import GPU
from repro.gpu.preemption import ResourceLossEvent
from repro.workloads import registry

#: test-and-set, centralized and decentralized ticket locks at global
#: scope, the centralized ticket lock at local scope, and the two-level
#: tree and lock-free tree barriers
PAPER_BENCHMARKS = ("SPM_G", "FAM_G", "SLM_G", "FAM_L", "TB_LG", "LFTB_LG")

#: measured passes per run, at least (see :func:`passes`)
MIN_PASSES = 2
#: set-up passes per round, and per run of the figure workload's
#: set-up child; set-up time sums each cell's median
SETUP_PER_ROUND = 2
SETUP_REPEATS = 3
#: passes per warm (all cache hits) sample; warm time is the median
#: per-pass time over the samples
WARM_BATCH = 10


def cells(workload: str, seed: int) -> List[RunRequest]:
    """The simulation cells of a workload at ``seed``."""
    if workload == "paper-sim":
        paper = PAPER_SCALE.scaled(seed=seed)
        return [RunRequest(bench, policy, paper)
                for bench in PAPER_BENCHMARKS
                for policy in (timeout(20_000), monnr_one(), awg())]
    if workload == "oversub-spill":
        over = OVERSUBSCRIBED.scaled(seed=seed)
        paper = PAPER_SCALE.scaled(seed=seed)
        out = [RunRequest(bench, policy, over)
               for bench in ("SPM_G", "TB_LG", "LFTB_LG", "SLM_G")
               for policy in (monnr_one(), awg(), monrs_all())
               # 9 s alone (2.5M cycles of resume-all storms): it would
               # double the workload and adds no path the others miss
               if (bench, policy.name) != ("SPM_G", "MonRS-All")]
        # the two capacity-ablation cells that overflow SyncMon into the
        # Monitor Log (syncmon_sets=1) and fill the log itself
        out.append(RunRequest("FAM_G", awg(), paper,
                              config_overrides={"syncmon_sets": 1}))
        out.append(RunRequest("SLM_G", awg(), paper, config_overrides={
            "syncmon_sets": 1, "monitor_log_entries": 8}))
        return out
    if workload == "figures-quick":
        # the CLI takes no seed; its set-up pass uses quick-scale cells
        quick = QUICK_SCALE.scaled(seed=seed)
        return [RunRequest(bench, policy, quick)
                for bench in PAPER_BENCHMARKS
                for policy in (timeout(20_000), monnr_one(), awg())]
    raise ValueError(f"unknown workload {workload!r}")


def cell_id(req: RunRequest) -> str:
    label = f"{req.benchmark}/{req.policy.name}/{req.scenario.label}"
    if req.config_overrides:
        label += "[" + ",".join(
            f"{k}={v}" for k, v in sorted(req.config_overrides.items())) + "]"
    return label


def digest(result: runner.RunResult) -> Dict[str, Any]:
    """The simulated outcome of one cell that the pins hold."""
    return {
        "cycles": result.cycles,
        "completed": result.completed,
        "deadlocked": result.deadlocked,
        "atomics": result.atomics,
        "waiting_atomics": result.waiting_atomics,
        "context_switches": result.context_switches,
        "stats": result.stats,
    }


def _run_cell(req: RunRequest) -> Tuple[Optional[runner.RunResult],
                                        Optional[str]]:
    """Run one cell; a raise (incl. a failed ``validate``) or a run that
    did not complete is a failure."""
    try:
        result = req.execute()
    except Exception:  # a failing cell is reported, not fatal
        return None, traceback.format_exc(limit=3)
    if not result.ok:
        return result, f"did not complete: {result.reason}"
    return result, None


def measured_pass(reqs: List[RunRequest],
                  after_cell: Optional[Callable[[], None]] = None
                  ) -> Dict[str, Any]:
    """Run every cell once, timing each; ``after_cell`` runs untimed
    after each cell."""
    started = time.perf_counter()
    digests: Dict[str, Any] = {}
    failures: Dict[str, str] = {}
    times: Dict[str, float] = {}
    results: List[Optional[runner.RunResult]] = []
    for req in reqs:
        cell_started = time.perf_counter()
        result, failure = _run_cell(req)
        times[cell_id(req)] = time.perf_counter() - cell_started
        results.append(result)
        if result is not None:
            digests[cell_id(req)] = digest(result)
        if failure is not None:
            failures[cell_id(req)] = failure
        if after_cell is not None:
            after_cell()
    return {"wall_s": time.perf_counter() - started, "times": times,
            "digests": digests, "failures": failures, "results": results}


def passes(budget: float, first_pass_s: float) -> int:
    """Measured passes per run: as many as fill the measuring time, and
    at least :data:`MIN_PASSES` so a slow spell is halved or outvoted."""
    return max(MIN_PASSES, round(budget / first_pass_s))


def median_sum(samples: List[Dict[str, float]]) -> float:
    """Sum over cells of each cell's median time across passes: a slow
    spell on the host inflates one pass of a cell, not its median."""
    return sum(statistics.median(s[cell] for s in samples)
               for cell in samples[0])


def setup_once(req: RunRequest) -> None:
    """``run_benchmark``'s model set-up, without running the model."""
    config = req.scenario.config(**(req.config_overrides or {}))
    gpu = GPU(config, req.policy)
    kernel = registry.build_benchmark(
        req.benchmark, gpu, params=req.scenario.params())
    if req.scenario.resource_loss_at_us is not None:
        ResourceLossEvent(at_us=req.scenario.resource_loss_at_us).schedule(gpu)
    gpu.launch(kernel)


def setup_pass(reqs: List[RunRequest]) -> Dict[str, float]:
    times = {}
    for req in reqs:
        started = time.perf_counter()
        setup_once(req)
        times[cell_id(req)] = time.perf_counter() - started
    return times


def fill_cache(reqs: List[RunRequest],
               results: List[Optional[runner.RunResult]], root: Path) -> None:
    """Leave the cache as a first sweep over the cells would have."""
    cache = ResultCache(root)
    for req, result in zip(reqs, results):
        if result is not None:
            cache.put(cache.key_for(req.spec()), result)


def warm_samples(reqs: List[RunRequest],
                 results: List[Optional[runner.RunResult]],
                 root: Path, repeats: int) -> Dict[str, Any]:
    """Answer the cells again through ``run_matrix`` from the cache that
    :func:`fill_cache` left. Each sample times :data:`WARM_BATCH` passes,
    a pass being too short to time alone; every pass must hit on every
    cell and return the measured results."""
    times, mismatched = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(WARM_BATCH):
            # through the module, so a traced pass sees the wrapped sweep
            swept = matrix.run_matrix(reqs, jobs=1, cache=ResultCache(root))
        times.append((time.perf_counter() - started) / WARM_BATCH)
        if swept.cache_hits != len(reqs):
            mismatched.append("<warm pass missed the cache>")
        for req, result, got in zip(reqs, results, swept):
            if result is None or digest(got) != digest(result):
                mismatched.append(cell_id(req))
    return {"times": times, "mismatched": sorted(set(mismatched))}


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# figure CLI
# ----------------------------------------------------------------------
#: a figure's closing ``[name: 1.2s]`` timing line
MARKER = re.compile(r"^\[(\w+): [0-9.]+s\]$", re.MULTILINE)


def figure_sections(stdout: str) -> Dict[str, Dict[str, Any]]:
    """Split ``repro all`` output at its ``[name: …s]`` markers. Each
    section keeps its text without the timing and ``matrix:`` lines (the
    only lines that differ between cold and warm runs) and its cell
    count: the ``matrix:`` line's, or 1 for a section computed without
    the matrix."""
    sections: Dict[str, Dict[str, Any]] = {}
    lines: List[str] = []
    count = 0
    for line in stdout.splitlines():
        marker = MARKER.match(line)
        if marker:
            sections[marker.group(1)] = {
                "text": "\n".join(lines).strip("\n"), "cells": count or 1}
            lines, count = [], 0
        elif "matrix:" in line:
            match = re.search(r"matrix: (\d+) cells", line)
            count += int(match.group(1)) if match else 0
        else:
            lines.append(line)
    return sections


def _run_cli_in_process(cache_dir: Path) -> str:
    from repro import cli

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["all", "--quick", "--jobs", "1"])
    if status:
        raise RuntimeError(f"repro all exited {status}")
    return out.getvalue()


# ----------------------------------------------------------------------
# child modes
# ----------------------------------------------------------------------
def mode_sim(workload: str, seed: int, budget: float,
             scratch: Path) -> Dict[str, Any]:
    """Rounds of one measured pass and set-up passes, as many rounds as
    fill ``budget`` seconds; after every cell of every round but the
    first, one warm sample. Spreading each kind of sample over the run
    keeps a slow spell on the host to a minority of them."""
    reqs = cells(workload, seed)
    first = measured_pass(reqs)
    rss = peak_rss_mb()  # the simulation's peak, before any set-up pass
    fill_cache(reqs, first["results"], scratch / "cache")
    samples, setups, warm, mismatched = [], [], [], set()

    def warm_sample() -> None:
        sampled = warm_samples(reqs, first["results"], scratch / "cache", 1)
        warm.extend(sampled["times"])
        mismatched.update(sampled["mismatched"])

    for round_no in range(passes(budget, first["wall_s"])):
        done = first if round_no == 0 else measured_pass(reqs, warm_sample)
        samples.append(done["times"])
        if (done["digests"] != first["digests"]
                or done["failures"] != first["failures"]):
            first["failures"]["<repeat pass>"] = (
                "a repeated pass simulated different results")
        setups += [setup_pass(reqs) for _ in range(SETUP_PER_ROUND)]
    return {
        "cells": [cell_id(r) for r in reqs],
        "wall_s": median_sum(samples),
        "passes": len(samples),
        "digests": first["digests"],
        "failures": first["failures"],
        "peak_rss_mb": rss,
        "warm_s": statistics.median(warm),
        "warm_mismatched": sorted(mismatched),
        "setup_s": median_sum(setups),
    }


def mode_setup(workload: str, seed: int, _budget: float,
               _scratch: Path) -> Dict[str, Any]:
    reqs = cells(workload, seed)
    return {"setup_s": median_sum(
        [setup_pass(reqs) for _ in range(SETUP_REPEATS)])}


def _traced(work: Callable[[], Any]) -> Tuple[Any, Any]:
    from perfbench.layers import LayerTracer

    with LayerTracer() as tracer:
        out = work()
    return out, tracer


def _layer_report(tracer, label: str, scratch: Path) -> Dict[str, Any]:
    from perfbench.layers import LAYERS

    self_s = tracer.layer_self()
    calls = tracer.layer_calls()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics["unattributed.self_s"] = tracer.unattributed_s()
    metrics.update(tracer.counters())
    metrics["trace.wall_s"] = tracer.wall_s
    path = scratch / f"{label}.trace.json"
    path.write_text(json.dumps(tracer.chrome_trace(label), sort_keys=True))
    return {"metrics": metrics, "trace_file": str(path)}


def mode_reference(workload: str, seed: int, _budget: float,
                   scratch: Path) -> Dict[str, Any]:
    """The traced pass's work with nothing wrapped: its wall time is the
    base of the tracing overhead, its results the traced pass's oracle."""
    if workload == "figures-quick":
        import repro.cli  # imported outside the timed pass

        started = time.perf_counter()
        stdout = _run_cli_in_process(scratch / "cache")
        return {"wall_s": time.perf_counter() - started, "stdout": stdout}
    done = measured_pass(cells(workload, seed))
    return {"wall_s": done["wall_s"], "digests": done["digests"],
            "failures": done["failures"]}


def mode_trace(workload: str, seed: int, _budget: float,
               scratch: Path) -> Dict[str, Any]:
    if workload == "figures-quick":
        import repro.cli  # imported outside the timed pass

        stdout, tracer = _traced(
            lambda: _run_cli_in_process(scratch / "cache"))
        out = _layer_report(tracer, workload, scratch)
        out["stdout"] = stdout
        return out
    reqs = cells(workload, seed)

    def work():
        done = measured_pass(reqs)
        fill_cache(reqs, done["results"], scratch / "cache")
        done["warm"] = warm_samples(reqs, done["results"], scratch / "cache",
                                    repeats=1)
        return done

    traced, tracer = _traced(work)
    failures = dict(traced["failures"])
    for cell in traced["warm"]["mismatched"]:
        failures.setdefault(cell, "warm pass returned different results")
    out = _layer_report(tracer, workload, scratch)
    out.update(cells=[cell_id(r) for r in reqs], digests=traced["digests"],
               failures=failures)
    return out


MODES = {"sim": mode_sim, "setup": mode_setup, "reference": mode_reference,
         "trace": mode_trace}


def main(argv: List[str]) -> int:
    mode, workload, seed, budget, out_path = argv
    out = Path(out_path)
    scratch = out.parent / (out.stem + ".d")
    scratch.mkdir(parents=True, exist_ok=True)
    result = MODES[mode](workload, int(seed), float(budget), scratch)
    out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.exit(main(sys.argv[1:]))
