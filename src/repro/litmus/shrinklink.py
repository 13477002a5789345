"""Shrink link: violating litmus schedules become minimal repro bundles.

When the oracle observes a contract violation (a cell the static spec
calls ``MUST_COMPLETE`` that hung, or a model judged ``violated`` that
the policy claims), the offending (program, policy, seed) triple is
packaged as a *litmus bundle* (kind ``awg-repro-litmus-bundle``) by the
shared bundle core in :mod:`repro.recovery.bundle` and minimized by the
shared greedy loop in :mod:`repro.recovery.shrink`. This module supplies
only what is litmus-specific: the request codec
(:class:`LitmusRequest`), its replay (:func:`replay_litmus`), the
program-size metric and its one-step reductions, and the oracle hook
(:func:`emit_violation_bundles`).

Program reductions, in fixed order: drop a whole WG script, drop a
single action (validity-checked — e.g. dropping an ``acquire`` also
drops its ``release``), halve a ``work`` duration, drop the restore
window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.policies import PolicySpec, named_policy
from repro.errors import ConfigError, ReproError
from repro.litmus.generate import (
    ACQUIRE,
    LitmusProgram,
    RELEASE,
    WORK,
    canonicalize,
    validate_program,
)
from repro.litmus.models import VIOLATED

# NOTE: repro.recovery must NOT be imported at module scope: the
# workloads registry exposes the litmus corpus, so experiments.cache ->
# runner -> workloads -> litmus -> recovery -> bundle -> cache would
# close an import cycle. The bundle core is imported at call time.


@dataclass(frozen=True)
class LitmusRequest:
    """One replayable litmus cell: program + policy + seed."""

    program: LitmusProgram
    policy: PolicySpec
    seed: int = 1

    def spec(self) -> Dict[str, Any]:
        return {
            "program": self.program.spec(),
            "policy": self.policy.spec(),
            "seed": self.seed,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "LitmusRequest":
        return cls(
            program=LitmusProgram.from_spec(spec["program"]),
            policy=PolicySpec.from_spec(spec["policy"]),
            seed=int(spec.get("seed", 1)),
        )

    def execute(self):
        from repro.litmus.oracle import run_litmus

        return run_litmus(self.program, self.policy, seed=self.seed)


def replay_litmus(request: LitmusRequest, expected: Dict[str, Any],
                  trace: bool) -> Tuple[bool, Dict[str, Any]]:
    """Re-run a litmus request; (did its violation recur, observed)."""
    if trace:
        raise ConfigError("litmus bundles cannot be replayed with a trace")
    run = request.execute()
    if expected["mode"] == "model-violation":
        judgment = run.judgments.get(expected["model"])
        return judgment is not None and judgment.verdict == VIOLATED, {
            "mode": "model-violation",
            "model": expected["model"],
            "verdict": judgment.verdict if judgment else "missing",
        }
    return run.contract_violation is not None, {  # contract
        "mode": "contract",
        "violation": run.contract_violation,
        "completed": run.outcome.completed,
    }


# ---------------------------------------------------------------------------
# program-level delta debugging
# ---------------------------------------------------------------------------

def program_size(program: LitmusProgram) -> int:
    """Monotone size metric: WG count + action count + work budget."""
    actions = sum(len(script) for script in program.scripts)
    work = sum(a[1] for script in program.scripts
               for a in script if a[0] == WORK)
    restore = 1 if program.restore_at_us is not None else 0
    return program.wgs + actions + work // 100 + restore


def _drop_action(script, index) -> Tuple[Any, ...]:
    """Drop one action; an ``acquire`` takes its matching ``release``
    along (and vice versa) so mutex discipline survives."""
    action = script[index]
    partner = None
    if action[0] == ACQUIRE:
        for j in range(index + 1, len(script)):
            if script[j][0] == RELEASE and script[j][1] == action[1]:
                partner = j
                break
    elif action[0] == RELEASE:
        for j in range(index - 1, -1, -1):
            if script[j][0] == ACQUIRE and script[j][1] == action[1]:
                partner = j
                break
    drop = {index, partner} if partner is not None else {index}
    return tuple(a for j, a in enumerate(script) if j not in drop)


def _reductions(
    program: LitmusProgram,
) -> Iterator[Tuple[str, str, str, Optional[LitmusProgram]]]:
    """Every one-step reduction, deterministic order: whole WGs first
    (biggest steps), then single actions, then work halving, then the
    restore window. Reductions that break program validity come out as
    ``None``."""
    def reduced(**changes: Any) -> Optional[LitmusProgram]:
        try:
            candidate = replace(program, alias=None, **changes)
            validate_program(candidate)
            return canonicalize(candidate)
        except ConfigError:
            return None

    def with_script(w: int, script: Tuple[Any, ...]):
        return reduced(scripts=tuple(script if j == w else s
                                     for j, s in enumerate(program.scripts)))

    if program.wgs > 1:
        for w in range(program.wgs):
            yield (f"program.wg{w}", "present", "dropped", reduced(
                wgs=program.wgs - 1,
                scripts=tuple(s for i, s in enumerate(program.scripts)
                              if i != w)))
    for w, script in enumerate(program.scripts):
        for i in range(len(script)):
            shrunk = _drop_action(script, i)
            if len(shrunk) < len(script):
                yield (f"program.wg{w}[{i}]", script[i][0], "dropped",
                       with_script(w, shrunk))
    for w, script in enumerate(program.scripts):
        for i, action in enumerate(script):
            if action[0] == WORK and action[1] > 100:
                halved = ((WORK, action[1] // 2),)
                yield (f"program.wg{w}[{i}].work", str(action[1]),
                       str(action[1] // 2),
                       with_script(w, script[:i] + halved + script[i + 1:]))
    if program.restore_at_us is not None:
        yield ("program.restore_at_us", str(program.restore_at_us),
               "dropped", reduced(restore_at_us=None))


def request_size(request: LitmusRequest) -> int:
    return program_size(request.program)


def _candidates(
    request: LitmusRequest,
) -> Iterator[Tuple[str, str, str, LitmusRequest]]:
    """The valid one-step reductions of a request's program."""
    for dimension, src, dst, program in _reductions(request.program):
        if program is not None:
            yield dimension, src, dst, replace(request, program=program)


# ---------------------------------------------------------------------------
# oracle hook: emit (and optionally shrink) bundles for a report
# ---------------------------------------------------------------------------

def emit_violation_bundles(
    report,
    out_dir: os.PathLike,
    seed: int = 1,
    shrink: bool = False,
    max_trials: int = 40,
) -> List[Path]:
    """Write one bundle per contract-violating run in ``report``;
    with ``shrink=True`` each is minimized first (bounded trials so CI
    stays fast)."""
    from repro.recovery.bundle import make_bundle, write_bundle
    from repro.recovery.shrink import shrink_bundle

    paths: List[Path] = []
    for run in report.violating_runs():
        request = LitmusRequest(
            program=run.program,
            policy=named_policy(run.policy),
            seed=seed,
        )
        bundle = make_bundle(request, expected={
            "mode": "contract",
            "expected_verdict": run.expected,
        })
        if shrink:
            try:
                bundle = shrink_bundle(
                    bundle, max_trials=max_trials).minimal
            except ReproError:
                pass  # keep the unshrunk bundle if replay is flaky
        paths.append(write_bundle(bundle, out_dir))
    return paths
