"""The sweep fleet: leases, the worker loop and the coordinator.

One sweep lives in one fabric directory, ``<fabric root>/<sweep key>/``:

``sweep.json``
    the published sweep: code fingerprint, result-cache root, the
    cells still to run (manifest key, cache key, spec) and their
    budgets. Workers refuse a sweep built from other code.
``leases/<cell_key>.json``
    one versioned lease per in-flight cell, claimed with ``O_EXCL``.
    The owner heartbeats by bumping its mtime through the claiming fd,
    so a stolen lease is never refreshed by its old owner. A lease older
    than its TTL plus :func:`fabric_skew_slop` has expired; only the
    coordinator removes (steals) it.
``failures/<cell_key>.json``
    the failure record and attempt count of a failed cell.
``STOP``
    the coordinator's order to exit (sweep settled or interrupted).

Results do not live here. A worker commits a cell by calling
:meth:`ResultCache.put <repro.experiments.cache.ResultCache.put>` while
it holds the lease — into the shared cache, or under ``--no-cache``
into a private one at ``cache/`` in this directory. The coordinator
records a cell in the checkpoint manifest once its cache entry appears.
It owns the worker processes, so it sees deaths, steals and commits
itself and reports them as ``fabric.*`` stats and trace instants.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.durability import vfs
from repro.errors import ConfigError, ReproError
from repro.experiments.cache import (
    ResultCache, code_fingerprint, default_cache,
)
from repro.experiments.matrix import (
    Cell, MatrixResult, RunRequest, execute_cell, log_exec,
    resolve_cell_retries, resolve_cell_timeout, sweep_signals,
)
from repro.recovery.manifest import (
    SweepCheckpoint, cell_key, default_checkpoint_dir,
)
from repro.trace.config import TraceConfig
from repro.trace.tracer import Tracer

#: bump when the lease-record layout changes (readers skip others)
LEASE_VERSION = 1

#: bump when the sweep document layout changes
SWEEP_VERSION = 2

#: fabric root override (default: ``<checkpoint dir>/fabric``)
FABRIC_DIR_ENV = "REPRO_FABRIC_DIR"

#: mtime slop tolerated before declaring a lease expired (seconds)
FABRIC_SKEW_ENV = "REPRO_FABRIC_SKEW"

#: worker exit codes; a worker that refused the sweep is not respawned
EXIT_OK = 0
EXIT_NO_SWEEP = 2
EXIT_FINGERPRINT = 3

#: times one worker slot is respawned after its worker exits early
MAX_RESPAWNS = 5


def default_fabric_root() -> Path:
    env = os.environ.get(FABRIC_DIR_ENV)
    return Path(env) if env else default_checkpoint_dir() / "fabric"


def fabric_skew_slop() -> float:
    """Lease age tolerated beyond the TTL: coarse mtimes (1-2s on some
    NFS/FAT stacks) and clock skew make a live lease *look* old, and
    stealing a live lease executes a cell twice. Default 0.25s; raise
    it with ``REPRO_FABRIC_SKEW`` on skewed fleets."""
    env = os.environ.get(FABRIC_SKEW_ENV)
    if not env:
        return 0.25
    try:
        return max(0.0, float(env))
    except ValueError:
        raise ConfigError(
            f"{FABRIC_SKEW_ENV} must be a number of seconds, got {env!r}")


def _read_json(path: Path,
               version: Optional[int] = None) -> Optional[Dict[str, Any]]:
    """The parsed document; None when missing, torn, not a dict, or
    (given ``version``) of another version."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or (
            version is not None and document.get("version") != version):
        return None
    return document


@dataclass
class Lease:
    """A claimed lease: the owner's handle on one cell."""

    key: str
    token: str
    path: Path
    #: the claiming fd; heartbeats utime it, not the path
    fd: int

    def heartbeat(self) -> None:
        vfs.vutime(self.fd)

    def close(self) -> None:
        vfs.vclose(self.fd)


@contextmanager
def _heartbeat(lease: Lease, interval: float) -> Iterator[None]:
    """Heartbeat ``lease`` from a background thread while the body runs."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(max(0.05, interval)):
            lease.heartbeat()

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=5)


class FabricDir:
    """One sweep's fabric directory (see the module docstring)."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.leases = self.root / "leases"
        self.failures = self.root / "failures"
        self.sweep_path = self.root / "sweep.json"
        self.stop_path = self.root / "STOP"

    def init(self) -> None:
        self.leases.mkdir(parents=True, exist_ok=True)
        self.failures.mkdir(parents=True, exist_ok=True)

    def publish_sweep(self, document: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        vfs.write_atomic_text(self.sweep_path, json.dumps(
            dict(document, version=SWEEP_VERSION), sort_keys=True))

    def read_sweep(self) -> Optional[Dict[str, Any]]:
        return _read_json(self.sweep_path, SWEEP_VERSION)

    def lease_path(self, key: str) -> Path:
        return self.leases / f"{key}.json"

    def claim(self, key: str, worker: str, ttl: float) -> Optional[Lease]:
        """Claim the lease on ``key``; None if someone holds it."""
        path = self.lease_path(key)
        token = f"{worker}:{os.getpid()}:{time.monotonic_ns()}"
        try:
            fd = vfs.vopen(path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
        except FileExistsError:
            return None
        data = json.dumps({
            "version": LEASE_VERSION, "key": key, "worker": worker,
            "pid": os.getpid(), "token": token, "ttl": ttl,
        }, sort_keys=True).encode()
        try:
            offset = 0
            while offset < len(data):
                offset += vfs.vwrite(fd, data[offset:])
            vfs.vfsync(fd)
        except OSError:
            pass  # a torn record names no owner but still expires by mtime
        return Lease(key=key, token=token, path=path, fd=fd)

    def read_lease(self, key: str) -> Optional[Dict[str, Any]]:
        """The lease record; None when absent, torn or foreign-version."""
        return _read_json(self.lease_path(key), LEASE_VERSION)

    def lease_age(self, key: str) -> Optional[float]:
        """Seconds since the last heartbeat; None without a lease."""
        try:
            return max(0.0, time.time() - self.lease_path(key).stat().st_mtime)
        except OSError:
            return None

    def lease_expired(self, key: str, default_ttl: float) -> bool:
        """The heartbeat is older than the record's TTL (else
        ``default_ttl``) plus :func:`fabric_skew_slop`."""
        age = self.lease_age(key)
        if age is None:
            return False
        ttl = (self.read_lease(key) or {}).get("ttl")
        if not isinstance(ttl, (int, float)):
            ttl = default_ttl
        return age > ttl + fabric_skew_slop()

    def owns(self, lease: Lease) -> bool:
        record = self.read_lease(lease.key)
        return record is not None and record.get("token") == lease.token

    def release(self, lease: Lease) -> bool:
        """Drop a held lease, unless it was stolen and re-claimed by
        someone else. True when the lease file was removed."""
        removed = False
        if self.owns(lease):
            try:
                vfs.vunlink(lease.path)
                removed = True
            except OSError:
                pass
        lease.close()
        return removed

    def steal(self, key: str) -> bool:
        """Remove an expired lease (coordinator only). Unlink is atomic:
        of racing parties exactly one succeeds."""
        try:
            vfs.vunlink(self.lease_path(key))
            return True
        except OSError:
            return False

    def live_leases(self) -> List[str]:
        return sorted(p.stem for p in self.leases.glob("*.json"))

    def read_failure(self, key: str) -> Optional[Dict[str, Any]]:
        return _read_json(self.failures / f"{key}.json")

    def record_failure(self, key: str, failure: Dict[str, Any]) -> int:
        """Persist one failed attempt; returns the attempt count. Only
        the lease owner runs a cell, so attempts never race."""
        attempts = (self.read_failure(key) or {}).get("attempts", 0) + 1
        vfs.write_atomic_text(self.failures / f"{key}.json", json.dumps({
            "key": key, "attempts": attempts, "failure": failure,
        }, sort_keys=True))
        return attempts

    def failure_settled(self, key: str, retries: int) -> bool:
        """The failure is final: deterministic (the same seed fails
        again) or out of environmental retries."""
        record = self.read_failure(key)
        if record is None:
            return False
        if (record.get("failure") or {}).get("classification") \
                == "deterministic":
            return True
        return record.get("attempts", 0) > retries

    def write_stop(self, reason: str) -> None:
        try:
            self.stop_path.write_text(reason + "\n")
        except OSError:
            pass

    def stopped(self) -> Optional[str]:
        try:
            return self.stop_path.read_text().strip()
        except OSError:
            return None

    def clear_stop(self) -> None:
        self.stop_path.unlink(missing_ok=True)


class Worker:
    """Claim → execute → commit → release, until nothing is left.

    Dying anywhere is safe: an unreleased lease expires and is
    re-leased, and a commit is one ``link`` that landed or did not."""

    def __init__(self, root: os.PathLike, name: str,
                 poll_interval: float = 0.05):
        self.dir = FabricDir(root)
        self.name = name
        self.poll_interval = poll_interval
        #: (cell key, cache key, spec) per published cell
        self.cells: List[Tuple[str, str, Dict[str, Any]]] = []
        self.cache: Optional[ResultCache] = None

    def load_sweep(self) -> int:
        """Adopt the published sweep; 0 on success, else an exit code."""
        document = self.dir.read_sweep()
        if self.dir.stopped() is not None:
            return EXIT_OK
        if document is None:
            print(f"[{self.name}] no sweep.json under {self.dir.root}",
                  file=sys.stderr)
            return EXIT_NO_SWEEP
        if document.get("fingerprint") != code_fingerprint():
            # a worker running other code must not commit its results
            print(f"[{self.name}] code fingerprint mismatch: sweep "
                  f"{document.get('fingerprint')} != local "
                  f"{code_fingerprint()}", file=sys.stderr)
            return EXIT_FINGERPRINT
        self.cache = ResultCache(document["cache"])
        self.cells = [(c["key"], c["cache_key"], c["spec"])
                      for c in document["cells"]]
        self.ttl = float(document["ttl"])
        self.cell_timeout = resolve_cell_timeout(document["cell_timeout"])
        self.retries = resolve_cell_retries(document["retries"])
        return EXIT_OK

    def _open(self, key: str, cache_key: str) -> bool:
        """The cell still needs a run: uncommitted and not settled."""
        return (cache_key not in self.cache
                and not self.dir.failure_settled(key, self.retries))

    def run_cell(self, lease: Lease, cache_key: str,
                 spec: Dict[str, Any]) -> None:
        """Execute one leased cell and commit or record the outcome. A
        worker whose lease was stolen while it stalled drops its result:
        the cell's new owner is authoritative."""
        try:
            with _heartbeat(lease, self.ttl / 4.0):
                result, failure = execute_cell(RunRequest.from_spec(spec),
                                               self.cell_timeout)
            if result is not None and self.dir.owns(lease):
                dropped = self.cache.dropped
                if self.cache.put(cache_key, result):
                    log_exec("commit", lease.key, self.name,
                             str(os.getpid()))
                elif self.cache.dropped > dropped:
                    message = "the result cache dropped the commit"
                    failure = {"type": "CommitDropped", "message": message,
                               "traceback": message,
                               "classification": "environmental"}
            if failure is not None:
                self.dir.record_failure(lease.key, failure)
        finally:
            self.dir.release(lease)

    def run(self) -> int:
        status = self.load_sweep()
        while status == EXIT_OK and self.dir.stopped() is None:
            todo = [cell for cell in self.cells if self._open(*cell[:2])]
            if not todo:
                break
            for key, cache_key, spec in todo:
                # held leases, expired ones included, are skipped: only
                # the coordinator steals
                lease = (self.dir.claim(key, self.name, self.ttl)
                         if self.dir.lease_age(key) is None else None)
                if lease is not None:
                    self.run_cell(lease, cache_key, spec)
                    break
            else:
                time.sleep(self.poll_interval)
        return status


@dataclass
class WorkerSlot:
    """One position in the local fleet."""

    name: str
    proc: Optional[subprocess.Popen] = None
    spawns: int = 0

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class FabricError(ReproError):
    """Every worker slot exited for good before the sweep settled."""


class FabricResult(MatrixResult):
    """A MatrixResult plus the fleet's stats and trace."""

    def __init__(self, cells: List[Cell], workers: int,
                 stats: Dict[str, int], duration: float, resumed: int,
                 trace: Optional[Dict[str, Any]]):
        super().__init__(cells, jobs=workers, resumed=resumed,
                         cache_hits=stats.get("fabric.cache.hits", 0),
                         cache_misses=0, deduped=0,
                         executed=stats.get("fabric.cells.committed", 0))
        self.workers = workers
        self.stats = stats
        self.duration = duration
        self.trace = trace

    def summary(self) -> str:
        failed, stats = len(self.errors), self.stats
        return (f"fabric: {len(self.cells)} cells, "
                f"{len(self.cells) - failed} completed, {failed} failed, "
                f"{self.resumed} resumed, workers={self.workers}, "
                f"{self.duration:.1f}s [lease.stolen="
                f"{stats.get('fabric.lease.stolen', 0)}, worker.deaths="
                f"{stats.get('fabric.worker.deaths', 0)}]")


class Coordinator:
    """Owns one sweep: the manifest, the local worker processes, lease
    expiry and commit collection."""

    def __init__(
        self,
        requests: Sequence[RunRequest],
        ttl: float = 5.0,
        cell_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        checkpoint_root: Union[None, str, os.PathLike] = None,
        fabric_root: Union[None, str, os.PathLike] = None,
        cache: Union[ResultCache, str, None] = "default",
        trace: bool = True,
        extra_env: Optional[Dict[str, str]] = None,
    ):
        if any(req.keep_gpu for req in requests):
            raise ConfigError(
                "keep_gpu=True cells cannot run on the fabric (a GPU "
                "object never crosses a process boundary)")
        self.requests = list(requests)
        self.ttl = ttl
        self.cell_timeout = resolve_cell_timeout(cell_timeout)
        self.retries = resolve_cell_retries(retries)
        # unique cells in request order (run_matrix's dedupe rule)
        self.specs = {}
        for req in self.requests:
            self.specs.setdefault(cell_key(req.spec()), req.spec())
        self.keys = list(self.specs)
        self.ckpt = SweepCheckpoint.open(list(self.specs.values()),
                                         root=checkpoint_root)
        self.sweep_key = self.ckpt.path.stem
        self.dir = FabricDir(Path(fabric_root or default_fabric_root())
                             / self.sweep_key)
        if cache == "default":
            cache = default_cache()
        self.cache = cache or ResultCache(self.dir.root / "cache")
        self.cache_keys = {key: self.cache.key_for(spec)
                           for key, spec in self.specs.items()}
        self.env = dict(os.environ, **(extra_env or {}))
        src = str(Path(__file__).resolve().parents[2])
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.slots: List[WorkerSlot] = []
        self.stats: Dict[str, int] = {}
        self._started = time.monotonic()
        self.tracer = (Tracer(self, TraceConfig(categories=("fabric",)))
                       if trace else None)
        #: last lease token seen per cell: a new token is a new grant
        self._tokens: Dict[str, Optional[str]] = {}

    @property
    def now(self) -> int:
        """The tracer's clock: microseconds since the coordinator began."""
        return int((time.monotonic() - self._started) * 1e6)

    def note(self, event: str, stat: Optional[str] = None,
             **args: Any) -> None:
        """Count one fleet event under ``stat`` and trace it."""
        if stat is not None:
            self.stats[stat] = self.stats.get(stat, 0) + 1
        if self.tracer is not None:
            self.tracer.instant("fabric", event, track="fabric", **args)

    def prepare(self) -> None:
        """Adopt prior progress (manifest + cache), then publish only
        the cells still missing."""
        self.dir.init()
        self.dir.clear_stop()
        self.stats.update({"fabric.cells.total": len(self.keys),
                           "fabric.cells.resumed": self.ckpt.resumed,
                           "fabric.cache.hits": len(self._collect())})
        pending = [key for key in self.keys if key not in self.ckpt.completed]
        self.ckpt.mark_in_flight(pending)
        self._tokens = {key: (self.dir.read_lease(key) or {}).get("token")
                        for key in self.dir.live_leases()}
        self.dir.publish_sweep({
            "fingerprint": self.ckpt.fingerprint,
            "cache": str(self.cache.root),
            "ttl": self.ttl,
            "cell_timeout": self.cell_timeout,
            "retries": self.retries,
            "cells": [{"key": key, "cache_key": self.cache_keys[key],
                       "spec": self.specs[key]} for key in pending],
        })
        self.note("sweep.start", cells=len(self.keys),
                  resumed=self.ckpt.resumed)

    # -- the worker processes -------------------------------------------
    def spawn(self, slot: WorkerSlot) -> None:
        """Start ``python -m repro fabric worker DIR`` in ``slot``."""
        logs = self.dir.root / "workers"
        logs.mkdir(parents=True, exist_ok=True)
        with open(logs / f"{slot.name}.log", "ab") as log:
            slot.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 str(self.dir.root)],
                env=self.env, stdout=log, stderr=log)
        slot.spawns += 1

    def _reap(self, sweep_done: bool) -> None:
        """A nonzero exit is a death. An early exit is respawned unless
        the worker refused the sweep or its slot is out of respawns."""
        for slot in self.slots:
            if slot.proc is None or slot.proc.poll() is None:
                continue
            code, slot.proc = slot.proc.returncode, None
            if code != EXIT_OK:
                self.note("worker.death", "fabric.worker.deaths",
                          worker=slot.name, code=code)
            if not (sweep_done or code in (EXIT_NO_SWEEP, EXIT_FINGERPRINT)
                    or slot.spawns > MAX_RESPAWNS):
                self.spawn(slot)
                self.note("worker.respawn", "fabric.worker.respawns",
                          worker=slot.name)

    def shutdown(self, grace: float = 5.0) -> None:
        """SIGTERM the fleet; SIGKILL whoever outlives ``grace``."""
        live = [slot.proc for slot in self.slots if slot.alive()]
        for proc in live:
            proc.terminate()
        deadline = time.monotonic() + grace
        for proc in live:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.send_signal(signal.SIGCONT)  # a stopped one too
                proc.kill()
                proc.wait(timeout=5)

    def interrupt(self, reason: str) -> None:
        """Leave the sweep resumable and kill the fleet, without
        blocking (signal-handler path)."""
        self.ckpt.flush(force=True)
        self.dir.write_stop(reason)
        for slot in self.slots:
            if slot.alive():
                slot.proc.send_signal(signal.SIGCONT)
                slot.proc.kill()

    # -- one tick -------------------------------------------------------
    def _collect(self) -> List[str]:
        """Record every cell whose cache entry appeared; returns their
        keys. A bad entry (digest-checked) heals to a miss in ``get``
        and the cell runs again."""
        found = []
        for key in self.keys:
            cache_key = self.cache_keys[key]
            if key in self.ckpt.completed or cache_key not in self.cache:
                continue
            result = self.cache.get(cache_key, verify=True)
            if result is not None:
                self.ckpt.record(key, result)
                found.append(key)
        return found

    def poll(self) -> bool:
        """Note grants, steal expired leases, record commits, reap the
        workers. True once every cell has settled."""
        for key in self.dir.live_leases():
            record = self.dir.read_lease(key) or {}
            worker, token = record.get("worker"), record.get("token")
            if token is not None and self._tokens.get(key) != token:
                self._tokens[key] = token
                self.note("lease.grant", "fabric.lease.granted",
                          key=key, worker=worker)
            if self.dir.lease_expired(key, self.ttl) and self.dir.steal(key):
                self.note("lease.stolen", "fabric.lease.stolen",
                          key=key, worker=worker)
        for key in self._collect():
            if key not in self._tokens:
                # claimed, committed and released between two ticks
                self._tokens[key] = None
                self.note("lease.grant", "fabric.lease.granted", key=key)
            self.note("cell.commit", "fabric.cells.committed", key=key)
        done = self.done()
        self._reap(sweep_done=done)
        return done

    def done(self) -> bool:
        return all(key in self.ckpt.completed
                   or self.dir.failure_settled(key, self.retries)
                   for key in self.keys)

    def finalize(self) -> FabricResult:
        self.dir.write_stop("sweep settled")
        self.note("sweep.done", completed=len(self.ckpt.completed),
                  cells=len(self.keys))
        failures = {key: self.dir.read_failure(key) or {}
                    for key in self.keys if key not in self.ckpt.completed}
        self.stats["fabric.cells.failed_attempts"] = sum(
            record.get("attempts", 0) for record in failures.values())
        cells = []
        for req in self.requests:
            key = cell_key(req.spec())
            result = self.ckpt.get(key)  # a fresh copy per duplicate
            # the sweep settled: a cell without a result has a failure
            failure = failures[key]["failure"] if result is None else None
            cells.append(Cell(req, result=result, failure=failure))
        # like run_matrix: a complete sweep deletes its manifest, a
        # partial one flushes it for resume
        self.ckpt.complete()
        trace_doc = None
        if self.tracer is not None:
            self.tracer.finish()
            trace_doc = self.tracer.export_chrome(
                label=f"fabric {self.sweep_key}")
        return FabricResult(cells, len(self.slots), dict(self.stats),
                            time.monotonic() - self._started,
                            self.ckpt.resumed, trace_doc)


def run_fabric(
    requests: Sequence[RunRequest],
    workers: int = 2,
    ttl: float = 5.0,
    poll_interval: float = 0.05,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint_root: Union[None, str, os.PathLike] = None,
    fabric_root: Union[None, str, os.PathLike] = None,
    cache: Union[ResultCache, str, None] = "default",
    trace: bool = True,
    on_tick: Optional[Callable[[Coordinator], None]] = None,
    supervisor_kw: Optional[Dict[str, Any]] = None,
) -> FabricResult:
    """Run a sweep on a leased worker fleet: the distributed
    ``run_matrix``, bit-identical to ``run_matrix(requests, jobs=1)``.

    ``ttl`` is the lease budget: a worker silent for longer loses its
    cell. ``cache=None`` commits into a private cache in the fabric
    directory. ``on_tick(coordinator)`` runs once per tick (the chaos
    drill's hook); ``supervisor_kw`` may carry the workers' ``extra_env``."""
    coordinator = Coordinator(
        requests, ttl=ttl, cell_timeout=cell_timeout, retries=retries,
        checkpoint_root=checkpoint_root, fabric_root=fabric_root,
        cache=cache, trace=trace, **(supervisor_kw or {}))
    coordinator.prepare()
    coordinator.slots = [WorkerSlot(name=f"w{i}")
                         for i in range(max(1, int(workers)))]
    try:
        if not coordinator.done():
            with sweep_signals(
                    lambda: coordinator.interrupt("interrupted by a signal")):
                for slot in coordinator.slots:
                    coordinator.spawn(slot)
                while not coordinator.poll():
                    if all(slot.proc is None for slot in coordinator.slots) \
                            and not coordinator.poll():
                        coordinator.interrupt("fleet exhausted")
                        raise FabricError(
                            "every worker slot exited for good before the "
                            "sweep settled (worker logs: "
                            f"{coordinator.dir.root / 'workers'}); re-run "
                            "to resume")
                    if on_tick is not None:
                        on_tick(coordinator)
                    time.sleep(poll_interval)
    finally:
        coordinator.shutdown()
    return coordinator.finalize()
