"""Content-addressed on-disk cache for experiment cells.

Every (benchmark, policy, scenario, overrides) cell is keyed by a SHA-256
of its canonical JSON spec plus a *code fingerprint* — a hash of every
``.py`` file in the ``repro`` package — so editing any simulator or
experiment source invalidates all cached results, while re-running an
unchanged figure (or a second figure sharing cells with a first) hits
the cache instead of re-simulating.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per cell
holding the :class:`~repro.experiments.runner.RunResult` fields (never
the GPU object). Writes go through a fsynced temp file hard-linked
into place, so concurrent runs never observe a torn entry and exactly
one writer stores each key (see :meth:`ResultCache.put`).

Environment knobs:

``REPRO_CACHE_DIR``
    cache root (default ``$XDG_CACHE_HOME/awg-repro`` or
    ``~/.cache/awg-repro``)
``REPRO_NO_CACHE``
    set to ``1`` to disable the default cache entirely
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.durability import vfs
from repro.errors import ConfigError
from repro.experiments.runner import RunResult

#: entry layout is ``<2-hex-char shard>/<key>.json``; the glob must not
#: sweep up the ``quarantine/`` directory the integrity check fills
_ENTRY_GLOB = "[0-9a-f][0-9a-f]/*.json"

#: RunResult fields persisted to disk (everything except ``gpu``)
RESULT_FIELDS = (
    "benchmark",
    "policy",
    "scenario",
    "cycles",
    "completed",
    "deadlocked",
    "reason",
    "atomics",
    "waiting_atomics",
    "context_switches",
    "wg_running_cycles",
    "wg_waiting_cycles",
    "stats",
    "diagnosis",
    "trace",
)

_FINGERPRINT: Optional[str] = None


def result_to_payload(result: RunResult) -> Dict[str, Any]:
    """The persisted (JSON-serializable) form of a RunResult — every
    field except the never-picklable GPU handle. Shared by the result
    cache, sweep checkpoint manifests and repro bundles so all three
    stores round-trip results identically."""
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def result_from_payload(payload: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`result_to_payload`."""
    return RunResult(**payload)


def payload_digest(body: Dict[str, Any]) -> str:
    """Content hash of a persisted result body, stored alongside it so
    an integrity sweep can detect torn or bit-rotted entries."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package (cached)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def cache_enabled() -> bool:
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "awg-repro"


def default_cache() -> Optional["ResultCache"]:
    """The process-wide default cache, or None when opted out via env."""
    if not cache_enabled():
        return None
    return ResultCache(default_cache_dir())


@dataclass
class CacheVerifyReport:
    """Outcome of a :meth:`ResultCache.verify` integrity sweep."""

    checked: int = 0
    ok: int = 0
    #: one ``{"path", "problem", "quarantined_to"?}`` record per bad entry
    corrupt: List[Dict[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def render(self) -> str:
        lines = [f"verified {self.checked} entries: {self.ok} intact, "
                 f"{len(self.corrupt)} corrupt"]
        for entry in self.corrupt:
            lines.append(f"  CORRUPT {entry['path']}: {entry['problem']}")
            if "quarantined_to" in entry:
                lines.append(f"    quarantined to {entry['quarantined_to']}")
        return "\n".join(lines)


class ResultCache:
    """Content-addressed store of :class:`RunResult` records.

    ``hits`` / ``misses`` / ``stores`` count this instance's traffic so
    experiment reports can surface them.
    """

    def __init__(self, root: os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: corrupted entries deleted and re-simulated (self-heal)
        self.healed = 0
        #: puts that lost the link race: another writer stored the key
        self.contended = 0
        #: puts dropped by the graceful-degradation policy
        self.dropped = 0
        #: persistent ENOSPC flipped the cache to read-through: gets
        #: still serve, puts are dropped — a full disk must never kill
        #: the sweep that was merely trying to memoize itself
        self.degraded = False

    # -- keys ----------------------------------------------------------
    def key_for(self, spec: Dict[str, Any]) -> str:
        """Stable content hash of a cell spec under the current code."""
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "spec": spec},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        """True when an entry for ``key`` is on disk (not verified)."""
        return self._path(key).exists()

    # -- traffic -------------------------------------------------------
    def get(self, key: str, verify: bool = False) -> Optional[RunResult]:
        """The cached result for ``key``, or None (counted as a miss).

        A present-but-unreadable entry (torn write from a killed
        process, truncated disk, schema drift) self-heals: it is deleted
        and treated as a miss, so the cell re-simulates and commits it
        afresh rather than failing every future sweep. ``verify`` also
        re-hashes the payload against its recorded digest, and a
        mismatch heals the same way: the fabric coordinator verifies the
        commits its workers made, while a sweep reading the cache skips
        the hash on every hit (``verify()`` checks the whole store)."""
        path = self._path(key)
        try:
            document = json.loads(path.read_text())
            if verify and \
                    document["digest"] != payload_digest(document["result"]):
                raise ValueError("payload digest mismatch")
            result = RunResult(**document["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            self.healed += 1
            vfs.incr_stat("durability.cache.healed")
            try:
                vfs.vunlink(path, missing_ok=True)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> bool:
        """Commit one result for ``key``, exactly once.

        This is the repo's one exactly-once commit: the entry is
        written to a temp file, fsynced, then hard-linked into place
        (:func:`repro.durability.vfs.write_atomic_text` with
        ``exclusive``). ``link`` refuses an existing name, so of several
        writers racing one key — two sweeps sharing the cache, or
        fabric workers that both executed a cell — exactly one stores;
        the rest count as ``contended`` and leave nothing behind.
        Entries are content-addressed, so the loser's bytes would have
        been identical anyway. A crash can never expose a torn entry:
        the link lands only after the fsync. Returns True when this
        call stored the entry.

        Failure policy: the cache is an accelerator, not ground truth.
        A put that still fails after the bounded retries is *dropped*
        (warned + counted), and persistent ENOSPC flips the instance to
        read-through ``degraded`` mode. No temp file survives any
        failure path — serialization happens before the first file
        operation, and the atomic writer owns its temp's lifetime."""
        if result.gpu is not None:
            raise ConfigError(
                "refusing to cache a RunResult holding a GPU object; "
                "run with keep_gpu=False"
            )
        if self.degraded:
            self.dropped += 1
            vfs.incr_stat("durability.cache.put_dropped")
            return False
        # serialize before touching the filesystem: a payload that
        # cannot serialize must not cost (or leak) a temp file
        body = result_to_payload(result)
        document = {
            "result": body,
            "key": key,
            "digest": payload_digest(body),
        }
        text = json.dumps(document, sort_keys=True, default=str)
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            stored = vfs.write_atomic_text(path, text, exclusive=True)
        except OSError as exc:
            self._degrade_on(exc, key)
            return False
        if stored:
            self.stores += 1
        else:
            self.contended += 1
        return stored

    def _degrade_on(self, exc: OSError, key: str) -> None:
        """Apply the put-failure policy: drop the put; persistent
        ENOSPC additionally flips read-through mode."""
        self.dropped += 1
        vfs.incr_stat("durability.cache.put_dropped")
        if exc.errno == errno.ENOSPC:
            self.degraded = True
            vfs.incr_stat("durability.cache.degraded")
            warnings.warn(
                f"result cache out of space storing {key[:12]}…; "
                f"degrading to read-through (further puts dropped)",
                RuntimeWarning, stacklevel=3)
        else:
            vfs.incr_stat("durability.cache.put_errors")
            warnings.warn(
                f"result cache put of {key[:12]}… failed after retries "
                f"({exc}); entry dropped, sweep continues",
                RuntimeWarning, stacklevel=3)

    # -- maintenance ---------------------------------------------------
    def verify(self, quarantine: bool = True) -> "CacheVerifyReport":
        """Integrity sweep: re-hash every stored payload against its
        recorded content digest and check the entry is well-formed (its
        embedded key matches its filename and the payload reconstructs a
        :class:`RunResult`).

        Corrupt entries are moved into ``<root>/quarantine/`` (or merely
        reported with ``quarantine=False``) so the evidence survives for
        inspection while future sweeps re-simulate the cell. Entries from
        before digests were recorded are treated as corrupt — their
        integrity cannot be established."""
        report = CacheVerifyReport()
        if not self.root.is_dir():
            return report
        for path in sorted(self.root.glob(_ENTRY_GLOB)):
            report.checked += 1
            problem = self._check_entry(path)
            if problem is None:
                report.ok += 1
                continue
            entry = {"path": str(path), "problem": problem}
            if quarantine:
                dest = self.root / "quarantine" / path.name
                dest.parent.mkdir(parents=True, exist_ok=True)
                try:
                    path.replace(dest)
                    entry["quarantined_to"] = str(dest)
                except OSError:
                    pass
            report.corrupt.append(entry)
        return report

    def _check_entry(self, path: Path) -> Optional[str]:
        """None when the entry is intact, else a one-line problem."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable JSON ({exc})"
        if not isinstance(document, dict) or "result" not in document:
            return "no result payload"
        if "digest" not in document or "key" not in document:
            return "pre-digest entry (no integrity record)"
        if document["key"] != path.stem:
            return (f"embedded key {document['key'][:12]}… does not match "
                    f"filename")
        actual = payload_digest(document["result"])
        if actual != document["digest"]:
            return (f"payload digest mismatch (stored "
                    f"{document['digest'][:12]}…, actual {actual[:12]}…)")
        try:
            result_from_payload(document["result"])
        except (TypeError, ValueError) as exc:
            return f"payload does not reconstruct a RunResult ({exc})"
        return None

    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob(_ENTRY_GLOB))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = self.entry_count()
        if self.root.is_dir():
            shutil.rmtree(self.root)
        return removed

    def summary(self) -> str:
        return f"{self.hits} hits / {self.misses} misses"
