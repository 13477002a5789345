"""Host-time attribution across the simulator's layers, measured from outside.

:class:`LayerTracer` wraps the entry points of each layer's module (the
table in :data:`ENTRY_POINTS`) from this file, so no simulator source
changes. Every wrapped call is a span; a layer's *self time* is the time
its spans cover minus the time covered by the spans they call into. Time
no wrapped span covers is reported as ``unattributed``.

Spans are aggregated in memory (one ``[self_s, calls]`` pair per entry
point): recording every event construction would cost more than the
simulation it measures. The coarse spans (cells, set-up, sweeps, cache
traffic) are kept individually, and each cell also gets one span per
layer whose length is that layer's self time inside the cell, so one
Perfetto view shows where every cell's host time went.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path, kind). ``span`` entries are timed;
#: ``count`` entries only count calls (generator factories, whose body
#: runs later inside a process step, and constructors counted as work).
#: Private names appear only where a layer has no public entry point that
#: the engine calls back into (process steps, the CP tick).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "CalendarEngine.run", "span"),
    ("sim.engine", "repro.sim.engine", "CalendarEngine.drain_batches", "span"),
    ("sim.engine", "repro.sim.engine", "CalendarEngine.step", "span"),
    ("sim.engine", "repro.sim.engine", "CalendarEngine.schedule", "span"),
    ("sim.engine", "repro.sim.engine", "_EngineBase.timeout", "span"),
    ("sim.engine", "repro.sim.engine", "_EngineBase.call_at", "span"),
    ("sim.events", "repro.sim.events", "Event.__init__", "span"),
    ("sim.events", "repro.sim.events", "Event.succeed", "span"),
    ("sim.events", "repro.sim.events", "Event.fire", "span"),
    ("sim.events", "repro.sim.events", "Event.add_callback", "span"),
    ("sim.events", "repro.sim.events", "AnyOf.__init__", "span"),
    ("sim.events", "repro.sim.events", "AllOf.__init__", "span"),
    ("sim.process", "repro.sim.process", "Process.__init__", "span"),
    ("sim.process", "repro.sim.process", "Process._resume", "span"),
    ("sim.process", "repro.sim.process", "Process.interrupt", "span"),
    ("sim.resources", "repro.sim.resources", "FifoResource.__init__", "span"),
    ("sim.resources", "repro.sim.resources", "FifoResource.service", "span"),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy.load", "span"),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy.store_word", "span"),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy.atomic", "span"),
    ("mem", "repro.mem.hierarchy", "MemoryHierarchy.bulk_transfer", "span"),
    ("mem", "repro.mem.cache", "Cache.access", "span"),
    ("core.syncmon", "repro.core.syncmon", "SyncMon.register", "span"),
    ("core.syncmon", "repro.core.syncmon", "SyncMon.withdraw", "span"),
    ("core.syncmon", "repro.core.syncmon", "SyncMon.on_atomic", "span"),
    ("core.monitor_log", "repro.core.monitor_log",
     "MonitorLog.append", "span"),
    ("core.monitor_log", "repro.core.monitor_log", "MonitorLog.drain", "span"),
    ("core.predictor", "repro.core.predictor",
     "ResumePredictor.__init__", "span"),
    ("core.predictor", "repro.core.predictor",
     "ResumePredictor.predict", "span"),
    ("core.predictor", "repro.core.predictor",
     "ResumePredictor.record_update", "span"),
    ("core.predictor", "repro.core.bloom", "CountingBloomFilter.__init__",
     "count"),
    ("gpu.dispatcher", "repro.gpu.dispatcher", "Dispatcher.add", "span"),
    ("gpu.dispatcher", "repro.gpu.dispatcher",
     "Dispatcher.mark_ready", "span"),
    ("gpu.dispatcher", "repro.gpu.dispatcher", "Dispatcher.kick", "span"),
    ("gpu.dispatcher", "repro.gpu.dispatcher", "Dispatcher.requeue", "span"),
    ("gpu.dispatcher", "repro.gpu.dispatcher",
     "Dispatcher.notify_met", "span"),
    ("gpu.command_processor", "repro.gpu.command_processor",
     "CommandProcessor.save_context", "span"),
    ("gpu.command_processor", "repro.gpu.command_processor",
     "CommandProcessor.restore_context", "span"),
    ("gpu.command_processor", "repro.gpu.command_processor",
     "CommandProcessor.note_waiting", "span"),
    ("gpu.command_processor", "repro.gpu.command_processor",
     "CommandProcessor.note_not_waiting", "span"),
    ("gpu.command_processor", "repro.gpu.command_processor",
     "CommandProcessor._tick", "span"),
    ("gpu.preemption", "repro.gpu.preemption", "apply_resource_loss", "span"),
    ("gpu.preemption", "repro.gpu.preemption",
     "apply_resource_restore", "span"),
    ("gpu.gpu", "repro.gpu.gpu", "GPU.__init__", "span"),
    ("gpu.gpu", "repro.gpu.gpu", "GPU.launch", "span"),
    ("gpu.gpu", "repro.gpu.gpu", "GPU.run", "span"),
    ("workloads.registry", "repro.workloads.registry",
     "build_benchmark", "span"),
    ("sim.rng", "repro.sim.rng", "RngStream.__init__", "span"),
    ("sim.rng", "repro.sim.rng", "RngStream.child", "span"),
    ("experiments.runner", "repro.experiments.runner",
     "run_benchmark", "span"),
    ("experiments.matrix", "repro.experiments.matrix", "run_matrix", "span"),
    ("experiments.cache", "repro.experiments.cache",
     "ResultCache.get", "span"),
    ("experiments.cache", "repro.experiments.cache",
     "ResultCache.put", "span"),
    ("experiments.cache", "repro.experiments.cache",
     "code_fingerprint", "span"),
    ("durability.vfs", "repro.durability.vfs", "vopen", "span"),
    ("durability.vfs", "repro.durability.vfs", "vwrite", "span"),
    ("durability.vfs", "repro.durability.vfs", "vfsync", "span"),
    ("durability.vfs", "repro.durability.vfs", "vclose", "span"),
    ("durability.vfs", "repro.durability.vfs", "vrename", "span"),
    ("durability.vfs", "repro.durability.vfs", "vunlink", "span"),
    ("durability.vfs", "repro.durability.vfs", "write_atomic_text", "span"),
)

#: every layer, in report order (``unattributed`` is the traced pass's
#: own time outside any wrapped span: figure rendering, the CLI, imports)
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(e[0] for e in ENTRY_POINTS))

#: entry points whose every call is also kept as an individual span
COARSE = frozenset({
    "run_benchmark", "run_matrix", "GPU.__init__", "GPU.launch", "GPU.run",
    "build_benchmark", "ResultCache.get", "ResultCache.put",
    "code_fingerprint",
})

#: the cell boundary: per-layer self time is also split per cell here
CELL = "run_benchmark"

#: exact work counters per layer, each a deterministic function of the
#: simulated work (a differing value means a run is no longer
#: deterministic). ``*_frac``/``*_rate``/``*_per_*`` are exact ratios of
#: such counts.
COUNTERS: Tuple[str, ...] = (
    "sim.engine.events_fired",
    "sim.engine.peak_pending",
    "sim.events.allocated",
    "sim.process.device_ops",
    "sim.resources.queue_depth_peak",
    "mem.l2_ops",
    "mem.l2_hit_rate",
    "core.syncmon.spills",
    "core.syncmon.resumes_per_met",
    "core.monitor_log.appends",
    "core.monitor_log.peak",
    "core.predictor.bloom_filters",
    "gpu.dispatcher.context_switches",
    "gpu.command_processor.spilled_resumes",
    "sim.rng.rng_streams",
    "experiments.matrix.executed",
    "experiments.matrix.hits",
    "experiments.matrix.deduped",
    "experiments.cache.hit_frac",
    "durability.vfs.bytes_written",
)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Installs span wrappers on :data:`ENTRY_POINTS`; use as a context
    manager around exactly one traced pass."""

    def __init__(self) -> None:
        self._stack: List[float] = [0.0]
        #: per entry point: [self seconds, calls]
        self.entries: Dict[Tuple[str, str], List[float]] = {
            (layer, path): [0.0, 0] for layer, _m, path, _k in ENTRY_POINTS
        }
        #: coarse spans: (name, layer, start, duration)
        self.spans: List[Tuple[str, str, float, float]] = []
        #: per-cell layer self time: (cell label, start, {layer: self_s})
        self.cells: List[Tuple[str, float, Dict[str, float]]] = []
        self._counts: Dict[str, float] = {
            "events_fired": 0, "peak_pending": 0, "queue_peak": 0,
            "l2_hits": 0, "l2_misses": 0, "spills": 0, "resumed": 0,
            "met": 0, "log_appends": 0, "log_peak": 0, "switches": 0,
            "spilled_resumes": 0, "executed": 0, "hits": 0, "deduped": 0,
            "cache_hits": 0, "bytes_written": 0,
        }
        self._resources: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.t0 = 0.0
        self.wall_s = 0.0

    # -- wrappers ------------------------------------------------------
    def _span(self, key: Tuple[str, str], fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        acc = self.entries[key]
        stack = self._stack
        clock = time.perf_counter
        coarse = key[1] in COARSE
        spans = self.spans
        name = key[1]
        layer = key[0]

        if not coarse and after is None:
            # the lean variant: hot entry points run millions of times,
            # and every instruction here inflates their parents' self time
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    acc[0] += dur - stack.pop()
                    acc[1] += 1
                    stack[-1] += dur
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = clock() - t0
                    acc[0] += dur - stack.pop()
                    acc[1] += 1
                    stack[-1] += dur
                    if coarse:
                        spans.append((name, layer, t0, dur))
                    if after is not None:
                        after(args, result)
        return functools.update_wrapper(wrapper, fn)

    def _count(self, key: Tuple[str, str], fn: Callable) -> Callable:
        acc = self.entries[key]

        def wrapper(*args, **kwargs):
            acc[1] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    def _cell(self, fn: Callable) -> Callable:
        """Split layer self time per cell around the cell span."""
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer.layer_self()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                after = tracer.layer_self()
                # run_benchmark(name, policy, ...)
                label = f"{args[0]}/{args[1].name}"
                tracer.cells.append((label, start, {
                    layer: after[layer] - before[layer] for layer in LAYERS
                }))
        return functools.update_wrapper(wrapper, fn)

    # -- counter hooks (per cell / per sweep / per I/O, never per event) --
    def _after_run(self, args, _outcome) -> None:
        gpu = args[0]
        metrics = gpu.env.metrics()
        c = self._counts
        c["events_fired"] += metrics["fired"]
        c["peak_pending"] = max(c["peak_pending"], metrics["peak_pending"])
        c["l2_hits"] += gpu.hierarchy.l2.stats.hits
        c["l2_misses"] += gpu.hierarchy.l2.stats.misses
        for res in self._resources:
            c["queue_peak"] = max(c["queue_peak"], res.peak_queue_depth)
        self._resources.clear()

    def _after_cell(self, _args, result) -> None:
        if result is None:
            return
        s = result.stats
        c = self._counts
        c["spills"] += s.get("syncmon.spills", 0)
        c["resumed"] += s.get("syncmon.resumed_wgs", 0)
        c["met"] += s.get("syncmon.conditions_met", 0)
        c["log_appends"] += s.get("log.appends", 0)
        c["log_peak"] = max(c["log_peak"], s.get("log.peak", 0))
        c["spilled_resumes"] += s.get("cp.spilled_resumes", 0)
        c["switches"] += result.context_switches

    def _after_matrix(self, _args, result) -> None:
        if result is None:
            return
        c = self._counts
        c["hits"] += result.cache_hits
        c["deduped"] += result.deduped
        c["executed"] += (len(result) - result.cache_hits - result.deduped
                          - result.resumed)

    def _after_get(self, _args, result) -> None:
        if result is not None:
            self._counts["cache_hits"] += 1

    def _after_write(self, args, _written) -> None:
        self._counts["bytes_written"] += len(args[1])

    def _after_resource(self, args, _none) -> None:
        self._resources.append(args[0])

    # -- install / restore ---------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "LayerTracer":
        import repro.cli  # binds every from-import before the patching
        from repro.gpu.device_api import WavefrontCtx

        hooks = {
            "GPU.run": self._after_run,
            "run_benchmark": self._after_cell,
            "run_matrix": self._after_matrix,
            "ResultCache.get": self._after_get,
            "vwrite": self._after_write,
            "FifoResource.__init__": self._after_resource,
        }
        for layer, module, path, kind in ENTRY_POINTS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            key = (layer, path)
            if kind == "count":
                wrapped = self._count(key, original)
            else:
                wrapped = self._span(key, original, hooks.get(path))
            if path == CELL:
                wrapped = self._cell(wrapped)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # a module-level function: rebind it in every module that
            # imported it by name, so callers see the wrapper too
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    self._patch(mod, attr, wrapped)
        # device ops: count calls only — each returns a generator whose
        # body runs inside the process step that drives it
        key = ("sim.process", "WavefrontCtx.<device ops>")
        self.entries[key] = [0.0, 0]
        for attr, value in list(vars(WavefrontCtx).items()):
            if callable(value) and hasattr(value, "__wrapped__"):
                self._patch(WavefrontCtx, attr, self._count(key, value))
        self._stack[:] = [0.0]
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        self.wall_s = time.perf_counter() - self.t0
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- results -------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _path), (self_s, _calls) in self.entries.items():
            out[layer] += self_s
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for (layer, _path), (_self_s, calls) in self.entries.items():
            out[layer] += int(calls)
        return out

    def calls(self, path: str) -> int:
        return int(sum(v[1] for (_l, p), v in self.entries.items()
                       if p == path))

    def counters(self) -> Dict[str, float]:
        c = self._counts
        l2_ops = c["l2_hits"] + c["l2_misses"]
        return {
            "sim.engine.events_fired": c["events_fired"],
            "sim.engine.peak_pending": c["peak_pending"],
            "sim.events.allocated": self.calls("Event.__init__"),
            "sim.process.device_ops": self.calls("WavefrontCtx.<device ops>"),
            "sim.resources.queue_depth_peak": c["queue_peak"],
            "mem.l2_ops": l2_ops,
            "mem.l2_hit_rate": c["l2_hits"] / l2_ops if l2_ops else 0.0,
            "core.syncmon.spills": int(c["spills"]),
            "core.syncmon.resumes_per_met":
                int(c["resumed"]) / int(c["met"]) if c["met"] else 0.0,
            "core.monitor_log.appends": int(c["log_appends"]),
            "core.monitor_log.peak": int(c["log_peak"]),
            "core.predictor.bloom_filters":
                self.calls("CountingBloomFilter.__init__"),
            "gpu.dispatcher.context_switches": c["switches"],
            "gpu.command_processor.spilled_resumes": int(c["spilled_resumes"]),
            "sim.rng.rng_streams": self.calls("RngStream.__init__"),
            "experiments.matrix.executed": c["executed"],
            "experiments.matrix.hits": c["hits"],
            "experiments.matrix.deduped": c["deduped"],
            "experiments.cache.hit_frac":
                c["cache_hits"] / self.calls("ResultCache.get")
                if self.calls("ResultCache.get") else 0.0,
            "durability.vfs.bytes_written": c["bytes_written"],
        }

    def unattributed_s(self) -> float:
        return self.wall_s - sum(self.layer_self().values())

    def chrome_trace(self, label: str) -> Dict[str, Any]:
        """The traced pass as a Chrome ``trace_event`` document (host
        microseconds): track 1 holds the coarse spans, then one track per
        layer with one span per cell as long as the layer's self time in
        that cell."""
        def us(t: float) -> int:
            return max(0, int(round((t - self.t0) * 1e6)))

        pid = 1
        tracks = ["host spans"] + [f"layer {layer}" for layer in LAYERS]
        events: List[Dict[str, Any]] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"perfbench {label} (traced pass)"},
        }]
        for tid, track in enumerate(tracks, start=1):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": track}})
            events.append({"ph": "M", "name": "thread_sort_index",
                           "pid": pid, "tid": tid,
                           "args": {"sort_index": tid}})
        events.append({"ph": "X", "name": "traced pass", "cat": "host",
                       "ts": 0, "dur": us(self.t0 + self.wall_s),
                       "pid": pid, "tid": 1, "args": {}})
        for name, layer, start, dur in self.spans:
            # round both ends, so a nested span never outlasts its parent
            events.append({"ph": "X", "name": name, "cat": layer,
                           "ts": us(start), "dur": us(start + dur) - us(start),
                           "pid": pid, "tid": 1, "args": {}})
        for cell, start, split in self.cells:
            for tid, layer in enumerate(LAYERS, start=2):
                dur = int(round(split[layer] * 1e6))
                if dur:
                    events.append({
                        "ph": "X", "name": f"{layer} in {cell}",
                        "cat": layer, "ts": us(start), "dur": dur,
                        "pid": pid, "tid": tid,
                        "args": {"self_us": dur},
                    })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "label": label,
                "clock": "host perf_counter, 1 trace microsecond == 1 us",
                "generator": "perfbench.layers",
                "entry_points": {
                    f"{layer}:{path}": {"self_s": v[0], "calls": int(v[1])}
                    for (layer, path), v in self.entries.items()
                },
            },
        }
