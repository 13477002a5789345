"""Parallel execution of the experiment matrix with result caching.

Every figure/table sweep is a list of independent simulation cells
(benchmark × policy × scenario × overrides). :func:`run_matrix` fans the
cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
(``jobs=1`` preserves the in-process path for debugging), consults the
content-addressed :mod:`~repro.experiments.cache`, deduplicates
identical cells inside one sweep (e.g. the per-benchmark Baseline run
every normalized figure repeats), and returns results in deterministic
request order with per-cell error capture — one failed cell does not
abort the sweep.

The runner survives misbehaving cells and workers:

- Every cell gets a wall-clock budget (``cell_timeout`` /
  ``REPRO_CELL_TIMEOUT`` seconds) enforced *inside* the worker with a
  SIGALRM timer, so a hung simulation is reported as a
  :class:`CellTimeoutError` failure instead of wedging the sweep, and
  the worker process stays reusable.
- A killed or crashed worker (``BrokenProcessPoolError``) loses only
  the cells that had no result yet; completed cells are preserved and
  the lost ones are resubmitted to a fresh pool with exponential
  backoff, up to ``retries`` / ``REPRO_CELL_RETRIES`` extra attempts.
- Failures come back as *structured* entries (exception type, message,
  deadlock diagnosis when available, traceback) on
  :attr:`MatrixResult.errors`, and figure code can degrade to partial
  output via :meth:`MatrixResult.try_get`. Each failure is classified
  ``deterministic`` (the simulation itself raised — retrying the same
  seed and plan would fail identically) or ``environmental`` (timeout,
  crashed worker); only environmental failures are retried.
- With checkpointing on (``checkpoint=True`` / ``REPRO_CHECKPOINT=1``),
  the sweep writes an atomic manifest (:mod:`repro.recovery.manifest`)
  after every completed cell. A sweep killed mid-flight — crash,
  SIGINT/SIGTERM, ``BrokenProcessPool`` — resumes on the next identical
  invocation (or via ``python -m repro matrix --resume``) executing only
  the missing cells. SIGINT/SIGTERM additionally flush the manifest and
  kill the pool's worker processes instead of leaking them.
- With ``bundle_dir`` (or ``REPRO_BUNDLE_DIR``) set, every failing cell
  emits a self-contained replayable repro bundle
  (:mod:`repro.recovery.bundle`).

Simulations are seeded and deterministic, so ``jobs=1`` and ``jobs=N``
produce bit-identical :class:`RunResult` fields.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import multiprocessing
import os
import signal
import threading
import time
import traceback
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

from repro.core.policies import PolicySpec
from repro.errors import ConfigError, DeadlockError, ReproError
from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.runner import RunResult, Scenario, run_benchmark
from repro.recovery.manifest import (
    SweepCheckpoint, cell_key, checkpoint_enabled,
)

#: sentinel: "use the process-wide default cache unless opted out"
DEFAULT_CACHE = "default"

#: test/observability hook: when set to a path, every cell *execution*
#: (not cache/checkpoint hit) appends one line — how the kill-and-resume
#: tests prove completed cells are not re-executed after a resume
EXEC_LOG_ENV = "REPRO_EXEC_LOG"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else cpu_count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_JOBS must be an integer, got {env!r}")
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_cell_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock budget in seconds: explicit arg, else
    ``REPRO_CELL_TIMEOUT``; None or <= 0 means unlimited."""
    if timeout is None:
        env = os.environ.get("REPRO_CELL_TIMEOUT")
        if env:
            try:
                timeout = float(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_CELL_TIMEOUT must be a number of seconds, "
                    f"got {env!r}")
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_cell_retries(retries: Optional[int] = None) -> int:
    """Extra attempts for cells lost to a crashed/hung worker: explicit
    arg, else ``REPRO_CELL_RETRIES``, else 2."""
    if retries is None:
        env = os.environ.get("REPRO_CELL_RETRIES")
        if env:
            try:
                retries = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_CELL_RETRIES must be an integer, got {env!r}")
        else:
            retries = 2
    return max(0, retries)


def _jsonable(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Nested dataclasses (e.g. a Scenario's FaultPlan): prefer their
        # canonical spec() so cache keys survive repr changes.
        spec = getattr(value, "spec", None)
        return _jsonable(spec() if callable(spec) else _dataclass_spec(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dataclass_spec(obj: Any) -> Dict[str, Any]:
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}


@dataclass(frozen=True)
class RunRequest:
    """One cell of the experiment matrix (the spec of one simulation)."""

    benchmark: str
    policy: PolicySpec
    scenario: Scenario
    validate: bool = True
    keep_gpu: bool = False
    config_overrides: Optional[Dict[str, Any]] = None
    param_overrides: Optional[Dict[str, Any]] = None

    def spec(self) -> Dict[str, Any]:
        """Canonical dict of everything that determines the result."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy.spec(),
            "scenario": self.scenario.spec(),
            "validate": self.validate,
            "config_overrides": _jsonable(self.config_overrides or {}),
            "param_overrides": _jsonable(self.param_overrides or {}),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "RunRequest":
        """Rebuild a request from its canonical spec (checkpoint-manifest
        resume, repro-bundle replay). ``keep_gpu`` is deliberately not
        part of the spec — a resumed/replayed cell never holds a GPU."""
        return cls(
            benchmark=spec["benchmark"],
            policy=PolicySpec.from_spec(spec["policy"]),
            scenario=Scenario.from_spec(spec["scenario"]),
            validate=spec.get("validate", True),
            config_overrides=dict(spec["config_overrides"])
            if spec.get("config_overrides") else None,
            param_overrides=dict(spec["param_overrides"])
            if spec.get("param_overrides") else None,
        )

    def execute(self) -> RunResult:
        return run_benchmark(
            self.benchmark,
            self.policy,
            self.scenario,
            validate=self.validate,
            keep_gpu=self.keep_gpu,
            config_overrides=dict(self.config_overrides)
            if self.config_overrides else None,
            **(self.param_overrides or {}),
        )


class CellTimeoutError(ReproError):
    """A matrix cell exceeded its wall-clock budget (``REPRO_CELL_TIMEOUT``)."""


class CellError(Exception):
    """A matrix cell's simulation raised; carries the worker traceback
    plus the structured failure record (see :func:`_failure_info`)."""

    def __init__(self, request: RunRequest, tb: str,
                 failure: Optional[Dict[str, Any]] = None):
        super().__init__(
            f"cell ({request.benchmark}, {request.policy.name}, "
            f"{request.scenario.label}) failed:\n{tb}"
        )
        self.request = request
        self.traceback = tb
        self.failure = failure or {"type": "Exception", "message": "",
                                   "traceback": tb}


@dataclass
class Cell:
    """Outcome of one request: a result or a structured failure."""

    request: RunRequest
    result: Optional[RunResult] = None
    #: structured failure record: ``type`` / ``message`` / ``traceback``,
    #: plus ``cycle`` and ``diagnosis`` for watchdog deadlocks
    failure: Optional[Dict[str, Any]] = None
    from_cache: bool = False

    @property
    def error(self) -> Optional[str]:
        """The failure traceback (None for successful cells)."""
        return self.failure["traceback"] if self.failure else None


class MatrixError(NamedTuple):
    """One :attr:`MatrixResult.errors` entry. Tuple-compatible with the
    historical ``(index, request, traceback)`` shape, plus the
    structured failure record."""

    index: int
    request: RunRequest
    traceback: str
    failure: Dict[str, Any]


def _failure_info(exc: BaseException, tb: str) -> Dict[str, Any]:
    """Structured, picklable record of one cell failure.

    ``classification`` drives the retry policy: a simulation that raised
    is ``deterministic`` — same seed, same plan, same exception — so
    re-running it would burn retries pointlessly; a wall-clock timeout is
    ``environmental`` (host load, not the cell) and is worth retrying.
    """
    info: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tb,
        "classification": (
            "environmental" if isinstance(exc, CellTimeoutError)
            else "deterministic"
        ),
    }
    if isinstance(exc, DeadlockError):
        info["cycle"] = exc.cycle
        info["diagnosis"] = exc.to_dict()
    return info


class _CellAlarm:
    """SIGALRM wall-clock budget for one cell, armed inside the process
    that simulates it (pool worker or the ``jobs=1`` main process).

    An in-worker timer — unlike an outer future timeout — interrupts the
    simulation loop itself, so the worker survives and is reused instead
    of leaking a hung process. No-op when ``seconds`` is falsy, off the
    main thread, or on platforms without ``signal.setitimer``.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self.armed = False

    def __enter__(self) -> "_CellAlarm":
        if (not self.seconds
                or threading.current_thread() is not threading.main_thread()
                or not hasattr(signal, "setitimer")):
            return self

        def _fire(_signum, _frame):
            raise CellTimeoutError(
                f"cell exceeded its {self.seconds:g}s wall-clock budget")

        self._previous = signal.signal(signal.SIGALRM, _fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        self.armed = True
        return self

    def __exit__(self, *_exc) -> bool:
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def log_exec(*fields: str) -> None:
    """Append one tab-separated line to ``REPRO_EXEC_LOG`` (when set).
    A cell execution logs ``benchmark, policy, scenario, pid`` (resume
    tests assert checkpointed cells never appear twice); a fabric
    worker that commits a result logs ``commit, cell key, worker,
    pid``. O_APPEND keeps concurrent worker writes whole."""
    path = os.environ.get(EXEC_LOG_ENV)
    if not path:
        return
    try:
        with open(path, "a") as fh:
            fh.write("\t".join(fields) + "\n")
    except OSError:
        pass


def _cell_subprocess_child(conn, request: RunRequest) -> None:
    """Child half of the wall-clock fallback: execute and ship the
    outcome back over the pipe (structured, like the SIGALRM path)."""
    try:
        outcome = (request.execute(), None)
    except Exception as exc:
        outcome = (None, _failure_info(exc, traceback.format_exc()))
    try:
        conn.send(outcome)
    except (OSError, ValueError):  # pragma: no cover - parent went away
        pass


def _execute_cell_subprocess(
    request: RunRequest, timeout: float
) -> Tuple[Optional[RunResult], Optional[Dict[str, Any]]]:
    """Wall-clock per-cell budget for contexts where SIGALRM cannot arm
    (any thread but the main one, platforms without ``setitimer``).

    The cell runs in a disposable spawned subprocess; the parent waits
    ``timeout`` seconds on the result pipe and kills the child on
    overrun. Costs one interpreter start-up per cell, which is why the
    in-worker alarm stays the fast path."""
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_cell_subprocess_child,
                       args=(child_conn, request), daemon=True)
    proc.start()
    child_conn.close()
    outcome = None
    try:
        if parent_conn.poll(timeout):
            outcome = parent_conn.recv()
    except (EOFError, OSError):
        outcome = None  # child died mid-send
    finally:
        parent_conn.close()
    if outcome is None:
        timed_out = proc.is_alive()
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10)
        if timed_out:
            exc = CellTimeoutError(
                f"cell exceeded its {timeout:g}s wall-clock budget "
                f"(subprocess fallback; SIGALRM unavailable off the "
                f"main thread)")
            return None, _failure_info(exc, str(exc))
        return None, _crash_failure(1)
    proc.join(timeout=10)
    return outcome


def _execute_cell(
    request: RunRequest, timeout: Optional[float] = None
) -> Tuple[Optional[RunResult], Optional[Dict[str, Any]]]:
    """Pool worker: never raises — failures come back structured.

    One exception to "never raises": a :class:`SweepInterrupted` from
    the sweep's SIGINT/SIGTERM handler. With ``jobs=1`` the cell runs in
    the main process, so the handler's raise lands *inside* this frame —
    it must unwind the whole sweep, not become a cell failure.

    When a timeout is requested but the SIGALRM budget cannot arm —
    ``run_matrix(jobs=1)`` called off the main thread, or a platform
    without ``setitimer`` — the cell falls back to a killable
    subprocess with an outer wall-clock wait instead of silently
    running unbounded (``keep_gpu`` cells cannot cross a process
    boundary and keep the historical unbounded behaviour)."""
    log_exec(request.benchmark, request.policy.name,
             request.scenario.label, str(os.getpid()))
    try:
        with _CellAlarm(timeout) as alarm:
            if timeout and not alarm.armed and not request.keep_gpu:
                return _execute_cell_subprocess(request, timeout)
            return request.execute(), None
    except SweepInterrupted:
        raise
    except Exception as exc:
        return None, _failure_info(exc, traceback.format_exc())


def execute_cell(
    request: RunRequest, timeout: Optional[float] = None
) -> Tuple[Optional[RunResult], Optional[Dict[str, Any]]]:
    """Public single-cell entrypoint: execute one matrix cell with the
    standard budget/failure machinery and return ``(result, failure)``
    — exactly one of the pair is non-None. This is the path fabric
    workers (:mod:`repro.fabric.fleet`) run leased cells through, so a
    fleet cell behaves bit-identically to a ``run_matrix`` cell:
    same ``REPRO_EXEC_LOG`` accounting, same structured failure
    records, same timeout classification."""
    return _execute_cell(request, timeout)


class MatrixResult(Sequence):
    """Cells in request order; indexing yields the cell's RunResult.

    Accessing a failed cell raises :class:`CellError` with the captured
    worker traceback; ``errors`` lists failures without raising.
    """

    def __init__(self, cells: List[Cell], jobs: int,
                 cache_hits: int, cache_misses: int, deduped: int,
                 resumed: int = 0, executed: int = 0):
        self.cells = cells
        self.jobs = jobs
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.deduped = deduped
        #: cells resolved from a checkpoint manifest instead of executed
        self.resumed = resumed
        #: unique cells this sweep simulated (failed ones included)
        self.executed = executed

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cell = self.cells[index]
        if cell.failure is not None:
            raise CellError(cell.request, cell.error, failure=cell.failure)
        return cell.result

    @property
    def errors(self) -> List[MatrixError]:
        return [MatrixError(i, c.request, c.error, c.failure)
                for i, c in enumerate(self.cells) if c.failure is not None]

    @property
    def ok(self) -> bool:
        return not self.errors

    def get(self, benchmark: str, policy_name: str) -> RunResult:
        """Result of the unique (benchmark, policy-name) cell.

        Sweeps that repeat a pair with different overrides must index by
        position instead."""
        matches = [
            i for i, c in enumerate(self.cells)
            if c.request.benchmark == benchmark
            and c.request.policy.name == policy_name
        ]
        if not matches:
            raise KeyError(f"no cell for ({benchmark}, {policy_name})")
        if len(matches) > 1:
            raise KeyError(
                f"({benchmark}, {policy_name}) is ambiguous "
                f"({len(matches)} cells); index by position"
            )
        return self[matches[0]]

    def try_get(self, benchmark: str, policy_name: str,
                default: Optional[RunResult] = None) -> Optional[RunResult]:
        """Like :meth:`get` but returns ``default`` when the cell is
        missing or failed — figure code uses this to degrade to partial
        output when a sweep lost cells to crashes or timeouts."""
        try:
            return self.get(benchmark, policy_name)
        except (KeyError, CellError):
            return default

    def summary(self) -> str:
        """One line for experiment-report notes: what ran, what failed,
        and where the rest came from."""
        line = (
            f"matrix: {len(self.cells)} cells, {self.executed} executed, "
            f"{len(self.errors)} failed, {self.cache_hits} cache hits, "
            f"{self.cache_misses} misses, {self.deduped} deduped, "
            f"jobs={self.jobs}"
        )
        if self.resumed:
            line += f", {self.resumed} resumed from checkpoint"
        return line


def _crash_failure(attempts: int) -> Dict[str, Any]:
    message = (
        f"worker process died or hung before returning a result "
        f"(after {attempts} attempt{'s' if attempts != 1 else ''})"
    )
    return {"type": "WorkerCrashError", "message": message,
            "traceback": message, "classification": "environmental"}


class SweepInterrupted(ReproError):
    """A checkpointed sweep was stopped by SIGINT/SIGTERM. The manifest
    was flushed and the pool's workers were killed first, so re-running
    the sweep (or ``python -m repro matrix --resume``) continues from
    the last completed cell."""

    def __init__(self, signum: int):
        name = signal.Signals(signum).name
        super().__init__(
            f"sweep interrupted by {name}; checkpoint flushed — re-run "
            f"the sweep or `python -m repro matrix --resume` to continue"
        )
        self.signum = signum


@contextmanager
def sweep_signals(on_signal: Callable[[], None]) -> Iterator[None]:
    """SIGINT/SIGTERM handling for the duration of one sweep.

    Without this, Ctrl-C (and any SIGTERM from a job scheduler) unwinds
    through ``ProcessPoolExecutor.__exit__``, which blocks joining
    workers mid-cell and can leak orphaned children. The installed
    handler (main thread only) runs ``on_signal`` — flush the
    checkpoint manifest, kill the sweep's worker processes — and raises
    :class:`SweepInterrupted` so callers unwind promptly with the sweep
    resumable. The fabric coordinator uses it too.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def fire(signum, _frame):
        on_signal()
        raise SweepInterrupted(signum)

    previous = {signum: signal.signal(signum, fire)
                for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


#: per-completion callback: (index, (result, failure))
_OnOutcome = Callable[[int, Tuple[Optional[RunResult],
                                  Optional[Dict[str, Any]]]], None]


def _run_cells(
    requests: Sequence[RunRequest],
    jobs: int,
    cell_timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    on_outcome: Optional[_OnOutcome] = None,
    pool_holder: Optional[Dict[str, Any]] = None,
) -> List[Tuple[Optional[RunResult], Optional[Dict[str, Any]]]]:
    """Execute cells, surviving hung cells and crashed workers.

    A cell whose simulation raises is a *deterministic* failure — the
    same seed and plan would raise identically — and is recorded without
    retry. *Environmental* failures (a cell lost to pool breakage, or a
    :class:`CellTimeoutError` from the in-worker alarm) are resubmitted
    to a fresh pool with exponential backoff, up to ``retries`` extra
    rounds; a cell that keeps timing out reports its last timeout
    failure rather than a crash.

    ``on_outcome`` fires in the parent as each cell settles (checkpoint
    writes, incremental cache puts, bundle emission); ``pool_holder``
    exposes the live pool to the sweep's signal handler.
    """
    outcomes: List[Optional[Tuple[Optional[RunResult],
                                  Optional[Dict[str, Any]]]]]
    outcomes = [None] * len(requests)
    pool_holder = pool_holder if pool_holder is not None else {}

    def settle(index: int, outcome) -> None:
        outcomes[index] = outcome
        if on_outcome is not None:
            on_outcome(index, outcome)

    if jobs <= 1 or len(requests) <= 1:
        for i, req in enumerate(requests):
            settle(i, _execute_cell(req, cell_timeout))
        return outcomes  # type: ignore[return-value]

    remaining = list(range(len(requests)))
    #: most recent environmental failure per retried cell; reported if
    #: retries run out (more informative than a generic crash record)
    last_failure: Dict[int, Tuple[None, Dict[str, Any]]] = {}
    attempt = 1
    while remaining:
        lost: List[int] = []
        retryable = attempt <= retries
        try:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(remaining))) as pool:
                pool_holder["pool"] = pool
                futures = {
                    pool.submit(_execute_cell, requests[i], cell_timeout): i
                    for i in remaining
                }
                # Backstop only: the in-worker alarm is the real per-cell
                # timeout; this catches a worker too wedged for SIGALRM.
                deadline = (
                    None if cell_timeout is None
                    else cell_timeout * math.ceil(len(remaining) / jobs) + 30.0
                )
                try:
                    for fut in as_completed(futures, timeout=deadline):
                        index = futures[fut]
                        try:
                            outcome = fut.result()
                        except BrokenProcessPool:
                            lost.append(index)
                            continue
                        except Exception as exc:  # future-level failure
                            outcome = (
                                None,
                                _failure_info(exc, traceback.format_exc()),
                            )
                        failure = outcome[1]
                        if (retryable and failure is not None
                                and failure.get("classification")
                                == "environmental"):
                            last_failure[index] = outcome
                            lost.append(index)
                            continue
                        settle(index, outcome)
                except FuturesTimeoutError:
                    # Force the wedged workers down so pool shutdown (and
                    # interpreter exit) cannot hang on joining them.
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        proc.kill()
                    for fut, index in futures.items():
                        if outcomes[index] is None and index not in lost:
                            lost.append(index)
        except BrokenProcessPool:
            # The pool broke during submission; everything unfinished in
            # this round is lost (completed outcomes are preserved).
            lost = [i for i in remaining if outcomes[i] is None]
        finally:
            pool_holder.pop("pool", None)

        remaining = sorted(set(lost))
        if not remaining:
            break
        if attempt > retries:
            for index in remaining:
                settle(index,
                       last_failure.get(index, (None, _crash_failure(attempt))))
            break
        time.sleep(retry_backoff * (2 ** (attempt - 1)))
        attempt += 1
    return outcomes  # type: ignore[return-value]


def _resolve_checkpoint(
    checkpoint: Union[None, bool, str, os.PathLike, SweepCheckpoint],
    specs: List[Dict[str, Any]],
) -> Optional[SweepCheckpoint]:
    """Turn the ``checkpoint`` argument into a live SweepCheckpoint.

    ``None`` consults ``REPRO_CHECKPOINT``; ``True`` uses the default
    checkpoint directory; a path uses that directory; a ready
    :class:`SweepCheckpoint` is adopted as-is; ``False`` disables."""
    if isinstance(checkpoint, SweepCheckpoint):
        return checkpoint
    if checkpoint is None:
        checkpoint = checkpoint_enabled()
    if checkpoint is False:
        return None
    if not specs:
        return None
    root = None if checkpoint is True else checkpoint
    return SweepCheckpoint.open(specs, root=root)


def _resolve_bundle_dir(
    bundle_dir: Union[None, str, os.PathLike],
) -> Optional[Path]:
    if bundle_dir is None:
        bundle_dir = os.environ.get("REPRO_BUNDLE_DIR") or None
    return Path(bundle_dir) if bundle_dir is not None else None


def _emit_bundle(bundle_dir: Path, request: RunRequest,
                 failure: Dict[str, Any]) -> Optional[Path]:
    """Write a replayable repro bundle for one failed cell; never lets
    bundle I/O break the sweep. Worker crashes carry no simulation
    identity (the failure is the *host*, not the cell) and emit none."""
    if failure.get("type") == "WorkerCrashError":
        return None
    from repro.recovery.bundle import make_bundle, write_bundle

    try:
        bundle = make_bundle(request, failure=failure)
        return write_bundle(bundle, bundle_dir)
    except Exception:
        return None


def run_matrix(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, None] = DEFAULT_CACHE,
    dedupe: bool = True,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    retry_backoff: float = 0.5,
    checkpoint: Union[None, bool, str, os.PathLike, SweepCheckpoint] = None,
    bundle_dir: Union[None, str, os.PathLike] = None,
) -> MatrixResult:
    """Execute every request, in parallel and through the cache.

    Results come back in request order regardless of completion order.
    ``cache`` is a :class:`ResultCache`, ``None`` (no caching), or the
    default sentinel (honours ``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR``).
    ``cell_timeout`` (seconds, default ``REPRO_CELL_TIMEOUT``) bounds
    each cell's wall-clock time; ``retries`` (default
    ``REPRO_CELL_RETRIES``) bounds resubmission of environmentally
    failed cells (crashed workers, timeouts).

    ``checkpoint`` (default ``REPRO_CHECKPOINT``) makes the sweep
    crash-resumable: completed cells land in an atomic manifest as they
    finish, and an identical re-invocation resumes instead of
    re-simulating (see :mod:`repro.recovery.manifest`). ``bundle_dir``
    (default ``REPRO_BUNDLE_DIR``) emits a replayable repro bundle per
    failing cell.
    """
    jobs = resolve_jobs(jobs)
    cell_timeout = resolve_cell_timeout(cell_timeout)
    retries = resolve_cell_retries(retries)
    if cache == DEFAULT_CACHE:
        cache = default_cache()
    bundle_path = _resolve_bundle_dir(bundle_dir)
    if jobs > 1 and any(req.keep_gpu for req in requests):
        raise ConfigError(
            "keep_gpu=True cells cannot cross the process pool (a GPU "
            "object is not picklable); use jobs=1 or drop keep_gpu and "
            "read the derived metrics from RunResult.stats instead"
        )

    cells: List[Optional[Cell]] = [None] * len(requests)
    cache_hits = cache_misses = deduped = resumed = 0

    # The checkpoint manifest covers every unique non-keep_gpu spec in
    # request order — its sweep key is what an identical re-invocation
    # (auto-resume) or `python -m repro matrix --resume` finds again.
    specs: List[Optional[Dict[str, Any]]] = [
        None if req.keep_gpu else req.spec() for req in requests
    ]
    seen_ckpt_keys = set()
    ckpt_specs = []
    for spec in specs:
        if spec is None:
            continue
        key = cell_key(spec)
        if key not in seen_ckpt_keys:
            seen_ckpt_keys.add(key)
            ckpt_specs.append(spec)
    ckpt = _resolve_checkpoint(checkpoint, ckpt_specs)

    # Resolve checkpointed and cached results, and collapse duplicate
    # specs to one execution. keep_gpu cells bypass all three (the GPU
    # object is neither serializable nor safely shared).
    pending: List[Tuple[Optional[str], Optional[str],
                        RunRequest, List[int]]] = []
    by_spec: Dict[str, int] = {}
    for index, req in enumerate(requests):
        spec = specs[index]
        if spec is None:
            pending.append((None, None, req, [index]))
            continue
        spec_key = repr(sorted(spec.items()))
        if dedupe and spec_key in by_spec:
            pending[by_spec[spec_key]][3].append(index)
            deduped += 1
            continue
        ckpt_key = cell_key(spec) if ckpt is not None else None
        if ckpt is not None:
            hit = ckpt.get(ckpt_key)
            if hit is not None:
                resumed += 1
                cells[index] = Cell(req, result=hit, from_cache=True)
                continue
        if cache is not None:
            key = cache.key_for(spec)
            hit = cache.get(key)
            if hit is not None:
                cache_hits += 1
                cells[index] = Cell(req, result=hit, from_cache=True)
                if ckpt is not None:
                    # mirror into the manifest so a later resume works
                    # even with the cache disabled or cleared
                    ckpt.record(ckpt_key, hit)
                continue
            cache_misses += 1
        else:
            key = None
        if dedupe:
            by_spec[spec_key] = len(pending)
        pending.append((key, ckpt_key, req, [index]))

    # Execute the surviving unique cells; each settles into the cache,
    # the checkpoint manifest, and (on failure) a repro bundle as it
    # completes, so progress survives a crash mid-sweep.
    unique_requests = [req for (_k, _ck, req, _idx) in pending]
    if ckpt is not None:
        ckpt.mark_in_flight([ck for (_k, ck, _req, _idx) in pending
                             if ck is not None])

    def on_outcome(index: int, outcome) -> None:
        key, ckpt_key, req, _indices = pending[index]
        result, failure = outcome
        if result is not None:
            if key is not None and cache is not None:
                cache.put(key, result)
            if ckpt is not None and ckpt_key is not None:
                ckpt.record(ckpt_key, result)
        elif failure is not None and bundle_path is not None:
            _emit_bundle(bundle_path, req, failure)

    # The whole execute-and-settle span is covered by one flush-on-exit
    # wrapper: *any* exception — from the cells, the signal plumbing, or
    # the settling loop after the pool drained — leaves the manifest
    # flushed with every completed cell, so the next run resumes there
    # instead of re-simulating. (flush() itself degrades to a warning on
    # I/O failure; a dying disk must not turn a clean SIGINT into a
    # lost checkpoint AND a secondary traceback.)
    pool_holder: Dict[str, Any] = {}

    def abort() -> None:
        if ckpt is not None:
            ckpt.flush(force=True)
        pool = pool_holder.get("pool")
        if pool is not None:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.kill()

    try:
        with sweep_signals(abort):
            outcomes = _run_cells(unique_requests, jobs, cell_timeout,
                                  retries, retry_backoff,
                                  on_outcome=on_outcome,
                                  pool_holder=pool_holder)

        for (key, _ck, req, indices), (result, failure) in zip(pending,
                                                               outcomes):
            for position, index in enumerate(indices):
                if result is not None and position > 0:
                    # duplicates get their own stats dict so one consumer
                    # mutating it cannot corrupt another's view
                    cells[index] = Cell(req, result=replace(
                        result, stats=dict(result.stats)))
                else:
                    cells[index] = Cell(req, result=result, failure=failure)

        if ckpt is not None:
            ckpt.complete()
    except BaseException:
        if ckpt is not None:
            ckpt.flush(force=True)
        raise

    return MatrixResult(
        [c for c in cells if c is not None],
        jobs=jobs,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        deduped=deduped,
        resumed=resumed,
        executed=len(pending),
    )
