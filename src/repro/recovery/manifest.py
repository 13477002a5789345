"""Sweep checkpoint manifests: crash-resumable ``run_matrix`` campaigns.

A checkpoint manifest is a single JSON document, written atomically
(temp file + fsync + rename) after every completed cell, recording for
one sweep:

- the manifest schema ``version`` and the code ``fingerprint`` the
  results were produced under,
- the full spec of every unique cell in the sweep (enough to rebuild
  the :class:`~repro.experiments.matrix.RunRequest` list without the
  original experiment code — what ``python -m repro matrix --resume``
  uses),
- every completed cell's serialized
  :class:`~repro.experiments.runner.RunResult`, keyed by the cell's
  content hash,
- which cells were in flight when the manifest was last flushed, plus
  provenance (pid, python, argv, timestamps).

Identity: the sweep key is a hash of the ordered cell specs — the same
sweep re-run after a crash resolves to the same manifest and resumes
automatically. The code fingerprint is deliberately *not* part of the
key: a resumed sweep whose fingerprint changed must find the stale
manifest, discard it, and restart from scratch (stale simulation results
must never survive a code change just because the checkpoint layer,
unlike the result cache, kept them).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.durability import vfs
from repro.errors import ConfigError
from repro.experiments.cache import (
    code_fingerprint, default_cache_dir, payload_digest,
    result_from_payload, result_to_payload,
)
from repro.experiments.runner import RunResult

#: bump when the manifest layout changes; older manifests are discarded
MANIFEST_VERSION = 1


def checkpoint_enabled() -> bool:
    """``REPRO_CHECKPOINT=1`` turns sweep checkpointing on by default."""
    return os.environ.get("REPRO_CHECKPOINT", "") in ("1", "true", "yes")


def default_checkpoint_dir() -> Path:
    env = os.environ.get("REPRO_CHECKPOINT_DIR")
    if env:
        return Path(env)
    return default_cache_dir() / "checkpoints"


def resolve_flush_interval(interval: Optional[float] = None) -> float:
    """Seconds between manifest flushes: explicit arg, else
    ``REPRO_CHECKPOINT_FLUSH``, else 0 (flush after every cell)."""
    if interval is None:
        env = os.environ.get("REPRO_CHECKPOINT_FLUSH")
        if env:
            try:
                interval = float(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_CHECKPOINT_FLUSH must be a number of seconds, "
                    f"got {env!r}")
        else:
            interval = 0.0
    return max(0.0, interval)


def cell_key(spec: Dict[str, Any]) -> str:
    """Content hash of one cell spec (fingerprint-free: the manifest
    records the fingerprint once, globally)."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def sweep_key(specs: List[Dict[str, Any]]) -> str:
    """Identity of a sweep: hash of its ordered cell specs."""
    canonical = json.dumps(specs, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class SweepCheckpoint:
    """One sweep's checkpoint manifest, resumable across processes.

    Use :meth:`open` — it computes the sweep key, adopts a compatible
    existing manifest (resume) or discards an incompatible one
    (version/fingerprint drift), and arms the flush throttle.
    """

    def __init__(self, path: Path, specs: List[Dict[str, Any]],
                 fingerprint: str, flush_interval: float = 0.0):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.flush_interval = flush_interval
        self.keys = [cell_key(spec) for spec in specs]
        self.specs = {key: spec for key, spec in zip(self.keys, specs)}
        #: completed cells: key -> serialized RunResult payload
        self.completed: Dict[str, Dict[str, Any]] = {}
        self.in_flight: List[str] = []
        #: why a pre-existing manifest was thrown away (None = clean/resume)
        self.discarded: Optional[str] = None
        #: how many completed cells were adopted from a previous run
        self.resumed = 0
        #: flushes that failed (degraded to warnings) — see :meth:`flush`
        self.flush_failures = 0
        self.created_at = time.time()
        self._dirty = False
        #: monotonic time of the last flush; None = never flushed, so the
        #: first flush always lands (0.0 would collide with monotonic
        #: clocks that start near zero, e.g. freshly booted containers)
        self._last_flush: Optional[float] = None

    # -- construction --------------------------------------------------
    @classmethod
    def open(
        cls,
        specs: List[Dict[str, Any]],
        root: Optional[os.PathLike] = None,
        fingerprint: Optional[str] = None,
        flush_interval: Optional[float] = None,
    ) -> "SweepCheckpoint":
        root = Path(root) if root is not None else default_checkpoint_dir()
        fingerprint = fingerprint or code_fingerprint()
        key = sweep_key(specs)
        ckpt = cls(root / f"{key}.json", specs, fingerprint,
                   resolve_flush_interval(flush_interval))
        ckpt._adopt_existing()
        return ckpt

    def _adopt_existing(self) -> None:
        """Resume from a compatible on-disk manifest, or discard it."""
        try:
            document = json.loads(self.path.read_text())
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            self._discard("unreadable manifest")
            return
        if document.get("version") != MANIFEST_VERSION:
            self._discard(
                f"manifest version {document.get('version')} != "
                f"{MANIFEST_VERSION}")
            return
        if document.get("fingerprint") != self.fingerprint:
            self._discard(
                "code fingerprint changed "
                f"({document.get('fingerprint')} -> {self.fingerprint}); "
                "checkpointed results are stale")
            return
        completed = document.get("completed", {})
        for key, entry in completed.items():
            if key not in self.specs:
                continue  # sweep shrank since the manifest was written
            payload = entry.get("result")
            if payload is None:
                continue
            if entry.get("digest") != payload_digest(payload):
                continue  # torn entry: re-simulate that cell
            try:
                result_from_payload(payload)
            except (TypeError, ValueError):
                continue
            self.completed[key] = payload
        self.resumed = len(self.completed)
        self.created_at = document.get("created_at", self.created_at)

    def _discard(self, reason: str) -> None:
        self.discarded = reason
        try:
            vfs.vunlink(self.path, missing_ok=True)
        except OSError:
            pass

    # -- cell traffic ---------------------------------------------------
    def get(self, key: str) -> Optional[RunResult]:
        """The checkpointed result for one cell, or None."""
        payload = self.completed.get(key)
        if payload is None:
            return None
        return result_from_payload(payload)

    def record(self, key: str, result: RunResult) -> None:
        """Checkpoint one completed cell and flush (throttled)."""
        self.completed[key] = result_to_payload(result)
        if key in self.in_flight:
            self.in_flight.remove(key)
        self._dirty = True
        self.flush()

    def mark_in_flight(self, keys: List[str]) -> None:
        self.in_flight = [k for k in keys if k not in self.completed]
        self._dirty = True

    # -- persistence ----------------------------------------------------
    @property
    def progress(self) -> str:
        return f"{len(self.completed)}/{len(self.keys)} cells"

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.keys)

    def document(self) -> Dict[str, Any]:
        return {
            "version": MANIFEST_VERSION,
            "sweep_key": self.path.stem,
            "fingerprint": self.fingerprint,
            "created_at": self.created_at,
            "updated_at": time.time(),
            "cells": [
                {"key": key, "spec": self.specs[key]} for key in self.keys
            ],
            "completed": {
                key: {"result": payload, "digest": payload_digest(payload)}
                for key, payload in self.completed.items()
            },
            "in_flight": list(self.in_flight),
            "provenance": {
                "pid": os.getpid(),
                "python": sys.version.split()[0],
                "argv": list(sys.argv),
            },
        }

    def flush(self, force: bool = False) -> bool:
        """Atomically persist the manifest; returns True when written.

        Unforced flushes are throttled to one per ``flush_interval``
        seconds (0 = every call) so huge sweeps with heavy payloads do
        not spend their time re-serializing the manifest.

        Failure policy: a flush that still fails after the bounded
        retries of :func:`repro.durability.vfs.write_atomic_text`
        *degrades to a warning* instead of killing the sweep — the
        checkpoint is a recovery accelerator, and losing one flush only
        means a crash would re-simulate a few more cells. The manifest
        stays dirty so the next flush (or the forced final one) retries
        from the current state; ``flush_failures`` counts the misses."""
        if not self._dirty:
            return False
        now = time.monotonic()
        if (not force and self.flush_interval > 0
                and self._last_flush is not None
                and now - self._last_flush < self.flush_interval):
            return False
        text = json.dumps(self.document(), sort_keys=True, default=str)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            vfs.write_atomic_text(self.path, text)
        except OSError as exc:
            self.flush_failures += 1
            vfs.incr_stat("durability.manifest.flush_failures")
            warnings.warn(
                f"checkpoint manifest flush to {self.path} failed after "
                f"retries ({exc}); sweep continues, will retry on the "
                f"next flush", RuntimeWarning, stacklevel=2)
            return False
        self._dirty = False
        self._last_flush = now
        return True

    def complete(self) -> None:
        """End-of-sweep: delete the manifest when every cell finished
        successfully (nothing left to resume), else flush the final
        state so the next run picks up exactly here."""
        if self.done:
            try:
                vfs.vunlink(self.path, missing_ok=True)
            except OSError:
                pass
            self._dirty = False
        else:
            self.flush(force=True)


# ---------------------------------------------------------------------------
# CLI support: listing and loading manifests without their sweep code
# ---------------------------------------------------------------------------

def list_manifests(root: Optional[os.PathLike] = None) -> List[Dict[str, Any]]:
    """Summaries of every manifest under ``root``, newest first."""
    root = Path(root) if root is not None else default_checkpoint_dir()
    if not root.is_dir():
        return []
    out = []
    for path in root.glob("*.json"):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        cells = document.get("cells", [])
        out.append({
            "path": str(path),
            "sweep_key": document.get("sweep_key", path.stem),
            "version": document.get("version"),
            "fingerprint": document.get("fingerprint"),
            "completed": len(document.get("completed", {})),
            "total": len(cells),
            "updated_at": document.get("updated_at", 0.0),
        })
    out.sort(key=lambda m: m["updated_at"], reverse=True)
    return out


def load_manifest(
    sweep: str, root: Optional[os.PathLike] = None,
) -> Dict[str, Any]:
    """Load one manifest by sweep key (or unambiguous prefix)."""
    root = Path(root) if root is not None else default_checkpoint_dir()
    matches = sorted(root.glob(f"{sweep}*.json")) if root.is_dir() else []
    if not matches:
        raise ConfigError(
            f"no checkpoint manifest matching {sweep!r} under {root}")
    if len(matches) > 1:
        raise ConfigError(
            f"{sweep!r} is ambiguous: {[p.stem for p in matches]}")
    return json.loads(matches[0].read_text())
