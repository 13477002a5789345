"""Repro bundles: self-contained, replayable records of failures.

A bundle is one JSON document carrying everything needed to re-run a
failure on another machine with no access to the run that produced it:
the canonical request spec, the *expected* failure (what must happen
again for the replay to count as a reproduction), and provenance (code
fingerprint, python, timestamp). One core serves two kinds, told apart
by the ``kind`` field and described by the fixed table :data:`KINDS`:
``awg-repro-bundle`` (a failing matrix cell's
:class:`~repro.experiments.matrix.RunRequest` plus its structured
``failure`` record; emitted by checkpointed sweeps via ``bundle_dir`` /
``REPRO_BUNDLE_DIR`` and by the fault-injection campaign) and
``awg-repro-litmus-bundle`` (a violating
:class:`~repro.litmus.shrinklink.LitmusRequest`, no ``failure`` key;
emitted by ``litmus run --bundles``). Both are consumed by
``python -m repro replay BUNDLE`` and the :mod:`repro.recovery.shrink`
minimizer.

Expected-failure modes (``bundle["expected"]["mode"]``) of cell bundles:

``diagnosis``
    the run must end in a watchdog diagnosis with the same stable
    :func:`~repro.gpu.diagnostics.diagnosis_signature` (deadlock vs
    livelock kind — cycle counts and WG ids legitimately drift when the
    scenario is shrunk)
``exception``
    the simulation must raise the same exception type
``timeout``
    the cell must exceed its recorded wall-clock budget again
``race``
    replayed with the dynamic sync sanitizer attached, the run must
    report at least one data race or lock error

Litmus bundles expect ``model-violation`` (the named ``model`` is judged
``violated`` again) or ``contract`` (a ``MUST_COMPLETE`` cell hangs again).

The schema is versioned (:data:`BUNDLE_VERSION`); loaders reject
bundles from other versions rather than mis-replaying them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.durability import vfs
from repro.errors import ConfigError
from repro.experiments.cache import code_fingerprint, result_to_payload
from repro.gpu.diagnostics import diagnosis_signature

#: bump when the bundle layout changes; replay refuses other versions
BUNDLE_VERSION = 1

#: the ``kind`` markers (also tell bundles from manifests and cache
#: entries when pointed at the wrong file)
BUNDLE_KIND = "awg-repro-bundle"
LITMUS_BUNDLE_KIND = "awg-repro-litmus-bundle"

#: top-level keys every valid cell bundle carries, schema-stability-tested
BUNDLE_KEYS = ("version", "kind", "request", "expected", "failure",
               "provenance")


@dataclass(frozen=True)
class BundleKind:
    """What differs between bundle kinds. Code hooks are
    ``"module:attr"`` references imported on first use: every worker
    loads :mod:`repro.litmus` through the workload registry, so neither
    side may import the other at module scope."""

    keys: Tuple[str, ...]  # top-level document keys
    request_keys: Tuple[str, ...]  # request spec must carry these
    modes: Dict[str, Tuple[str, ...]]  # mode -> keys its clause needs
    label: Callable[[Dict[str, Any]], str]  # request spec -> name label
    codec: str  # request class: spec() / from_spec()
    replay: str  # (request, expected, trace) -> (reproduced, observed)
    size: str  # request -> size each shrink step strictly reduces
    candidates: str  # request -> (dimension, from, to, smaller request)

    def hook(self, name: str) -> Any:
        module, attr = getattr(self, name).split(":")
        return getattr(importlib.import_module(module), attr)


def _cell_label(request: Dict[str, Any]) -> str:
    policy = request.get("policy", {}).get("name", "policy")
    scenario = request.get("scenario", {}).get("label", "scenario")
    return f"{request['benchmark']}-{policy}-{scenario}"


def _litmus_label(request: Dict[str, Any]) -> str:
    policy = request.get("policy", {}).get("name", "policy")
    # generated/shrunk programs have no alias; the digest still names them
    program = request.get("program", {}).get("alias") or "generated"
    return f"litmus-{program}-{policy}"


#: every bundle kind, keyed by the document's ``kind`` field
KINDS: Dict[str, BundleKind] = {
    BUNDLE_KIND: BundleKind(
        keys=BUNDLE_KEYS,
        request_keys=("benchmark", "policy", "scenario"),
        modes={"diagnosis": (), "exception": (), "timeout": (),
               "race": ()},
        label=_cell_label,
        codec="repro.experiments.matrix:RunRequest",
        replay="repro.recovery.bundle:_replay_cell",
        size="repro.recovery.shrink:bundle_size",
        candidates="repro.recovery.shrink:_candidates",
    ),
    LITMUS_BUNDLE_KIND: BundleKind(
        keys=tuple(k for k in BUNDLE_KEYS if k != "failure"),
        request_keys=("program", "policy"),
        modes={"model-violation": ("model",), "contract": ()},
        label=_litmus_label,
        codec="repro.litmus.shrinklink:LitmusRequest",
        replay="repro.litmus.shrinklink:replay_litmus",
        size="repro.litmus.shrinklink:request_size",
        candidates="repro.litmus.shrinklink:_candidates",
    ),
}


def derive_expected(
    failure: Optional[Dict[str, Any]] = None,
    result: Any = None,
) -> Dict[str, Any]:
    """The expected-failure clause for a bundle, from either a matrix
    failure record or a completed-but-wrong :class:`RunResult` (e.g. an
    IFP-contract violation in the faults campaign)."""
    if failure is not None:
        if failure.get("diagnosis") is not None:
            return {
                "mode": "diagnosis",
                "signature": diagnosis_signature(failure["diagnosis"]),
            }
        if failure.get("type") == "CellTimeoutError":
            return {"mode": "timeout",
                    "seconds": failure.get("timeout_seconds", 60.0)}
        return {"mode": "exception", "type": failure.get("type", "Exception")}
    if result is not None and getattr(result, "deadlocked", False):
        signature = diagnosis_signature(result.diagnosis)
        return {
            "mode": "diagnosis",
            "signature": signature or {"kind": "deadlock"},
        }
    raise ConfigError(
        "cannot derive an expected failure: need a failure record or a "
        "deadlocked result (pass expected=... explicitly for race bundles)")


def make_bundle(
    request: Any,
    failure: Optional[Dict[str, Any]] = None,
    result: Any = None,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a bundle document for one failing request.

    ``request`` is a :class:`~repro.experiments.matrix.RunRequest` or a
    :class:`~repro.litmus.shrinklink.LitmusRequest` (anything whose
    ``spec()`` carries one kind's request keys picks that kind);
    ``expected`` overrides the expected-failure clause derived from
    ``failure`` / ``result`` (required for ``race`` and litmus bundles,
    whose evidence does not live in a failure record)."""
    spec = request.spec()
    kind = next((name for name, entry in KINDS.items()
                 if all(key in spec for key in entry.request_keys)), None)
    if kind is None:
        raise ConfigError("request spec matches no bundle kind")
    if expected is None:
        expected = derive_expected(failure=failure, result=result)
    bundle = {
        "version": BUNDLE_VERSION,
        "kind": kind,
        "request": spec,
        "expected": expected,
        "provenance": {
            "fingerprint": code_fingerprint(),
            "python": sys.version.split()[0],
            "created_at": time.time(),
        },
    }
    if "failure" not in KINDS[kind].keys:
        return bundle
    trimmed_failure = None
    if failure is not None:
        trimmed_failure = {k: failure[k] for k in
                           ("type", "message", "classification", "cycle",
                            "diagnosis") if k in failure}
    elif result is not None:
        trimmed_failure = {
            "type": "ContractViolation",
            "message": getattr(result, "reason", ""),
            "classification": "deterministic",
            "diagnosis": getattr(result, "diagnosis", None),
        }
    bundle["failure"] = trimmed_failure
    return bundle


def validate_bundle(bundle: Any) -> Dict[str, Any]:
    """Check a loaded document is a replayable bundle; returns it."""
    if not isinstance(bundle, dict):
        raise ConfigError("bundle must be a JSON object")
    kind = bundle.get("kind")
    entry = KINDS.get(kind)
    if entry is None:
        raise ConfigError(
            f"not a repro bundle (kind={kind!r}, expected one of "
            f"{sorted(KINDS)})")
    if bundle.get("version") != BUNDLE_VERSION:
        raise ConfigError(
            f"bundle version {bundle.get('version')!r} is not supported "
            f"(this build reads version {BUNDLE_VERSION})")
    missing = [k for k in entry.keys if k not in bundle]
    if missing:
        raise ConfigError(f"{kind} is missing keys: {missing}")
    request = bundle["request"]
    if not isinstance(request, dict) or not all(
            k in request for k in entry.request_keys):
        raise ConfigError(
            f"{kind} request must carry "
            f"{'/'.join(entry.request_keys)} specs")
    expected = bundle["expected"]
    if not isinstance(expected, dict) or "mode" not in expected:
        raise ConfigError("bundle expected clause must carry a mode")
    required = entry.modes.get(expected["mode"])
    if required is None:
        raise ConfigError(
            f"unknown expected-failure mode {expected['mode']!r} for "
            f"{kind} (expected one of {sorted(entry.modes)})")
    absent = [k for k in required if k not in expected]
    if absent:
        raise ConfigError(
            f"{expected['mode']} bundles must name {', '.join(absent)} "
            f"in their expected clause")
    return bundle


def bundle_kind(bundle: Any) -> BundleKind:
    """The :data:`KINDS` entry of a bundle (validated first)."""
    return KINDS[validate_bundle(bundle)["kind"]]


def bundle_name(bundle: Dict[str, Any]) -> str:
    """Deterministic filename: the kind's label (cell or program
    identity) + expected mode + spec hash (the hash keeps shrunken
    variants of the same cell distinct)."""
    request = bundle["request"]
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"),
                           default=str)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:8]
    label = KINDS[bundle["kind"]].label(request)
    return f"{label}-{bundle['expected']['mode']}-{digest}.json"


def write_bundle(bundle: Dict[str, Any],
                 out_dir: os.PathLike) -> Path:
    """Atomically persist one bundle (serialized before the first file
    operation, written through the durability gateway with bounded
    retries on transient I/O faults); returns its path."""
    validate_bundle(bundle)
    text = json.dumps(bundle, indent=2, sort_keys=True, default=str)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bundle_name(bundle)
    vfs.write_atomic_text(path, text)
    return path


def load_bundle(path: os.PathLike) -> Dict[str, Any]:
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"no bundle at {path}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable bundle {path}: {exc}")
    return validate_bundle(document)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _observe(request: Any, expected: Dict[str, Any],
             trace: bool = False) -> Dict[str, Any]:
    """Execute the cell in-process and classify what happened into the
    same mode vocabulary as the expected clause."""
    # lazy: matrix imports repro.recovery.manifest, so this module must
    # not import matrix until call time
    from repro.experiments.matrix import _CellAlarm

    mode = expected["mode"]
    overrides = dict(request.config_overrides or {})
    if mode == "race":
        overrides["sanitize"] = True
        request = replace(request, config_overrides=overrides, keep_gpu=True)
    if trace:
        from repro.trace.config import TraceConfig

        overrides["trace"] = TraceConfig.parse("all")
        request = replace(request, config_overrides=overrides)
    budget = expected.get("seconds") if mode == "timeout" else None

    try:
        with _CellAlarm(budget):
            result = request.execute()
    except Exception as exc:
        from repro.experiments.matrix import CellTimeoutError

        if isinstance(exc, CellTimeoutError):
            return {"mode": "timeout", "detail": str(exc)}
        observed: Dict[str, Any] = {
            "mode": "exception", "type": type(exc).__name__,
            "detail": str(exc),
        }
        diagnosis = getattr(exc, "to_dict", None)
        if callable(diagnosis):
            observed["mode"] = "diagnosis"
            observed["signature"] = diagnosis_signature(diagnosis())
        return observed

    if mode == "race" and result.gpu is not None:
        report = result.gpu.sanitizer.report()
        if report["races"] or report["lock_errors"]:
            return {
                "mode": "race",
                "race_count": report["race_count"],
                "lock_errors": len(report["lock_errors"]),
                "result": result_to_payload(replace(result, gpu=None)),
            }
    if result.deadlocked:
        return {
            "mode": "diagnosis",
            "signature": (diagnosis_signature(result.diagnosis)
                          or {"kind": "deadlock"}),
            "result": result_to_payload(replace(result, gpu=None)),
        }
    return {"mode": "ok",
            "result": result_to_payload(replace(result, gpu=None))}


def _replay_cell(request: Any, expected: Dict[str, Any],
                 trace: bool) -> Tuple[bool, Dict[str, Any]]:
    observed = _observe(request, expected, trace=trace)
    # timeout / race: reaching the mode is the reproduction
    key = {"diagnosis": "signature", "exception": "type"}.get(
        expected["mode"])
    return (expected["mode"] == observed["mode"] and (
        key is None or expected.get(key) == observed.get(key))), observed


def replay_bundle(bundle: Dict[str, Any],
                  trace: bool = False) -> Dict[str, Any]:
    """Re-run a bundle's request and check the recorded failure recurs.

    Returns ``{"reproduced", "expected", "observed", "request"}``;
    ``observed`` carries what the replay saw — for cells the replayed
    result payload (and, with ``trace=True``, its exported Chrome trace
    inside that payload) for post-mortem inspection. Litmus bundles
    cannot be traced."""
    kind = bundle_kind(bundle)
    request = kind.hook("codec").from_spec(bundle["request"])
    expected = bundle["expected"]
    reproduced, observed = kind.hook("replay")(request, expected, trace)
    return {
        "reproduced": reproduced,
        "expected": expected,
        "observed": observed,
        "request": bundle["request"],
    }
