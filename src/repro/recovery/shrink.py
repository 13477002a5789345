"""Delta-debugging minimizer for failing repro bundles of either kind.

``python -m repro shrink BUNDLE`` takes a bundle whose failure replays
(:func:`~repro.recovery.bundle.replay_bundle`) and greedily applies the
one-step reductions its kind offers, re-replaying after every candidate
step and keeping only steps that preserve the failure. For matrix-cell
bundles (defined here) those shrink the *scenario* (WG count, group
size, residency, iterations, episodes) and the *fault plan* (dropping
whole fault families, then reducing each family's event counts); for
litmus bundles (:mod:`repro.litmus.shrinklink`) they shrink the program.

The search is deterministic: candidates are enumerated in a fixed order,
the simulator is seeded, and every accepted step strictly reduces the
kind's size metric (for cells: scenario knob sum +
:meth:`FaultPlan.weight`), so two invocations on the same bundle
produce the same minimal bundle and the same shrink log. Termination is
guaranteed by monotonicity — the size metric is a non-negative integer
that decreases on every accepted step — plus a trial budget for
pathological predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.plan import FaultPlan

#: hard ceiling on replay attempts (the greedy loop normally converges
#: in far fewer — each accepted step restarts a ~dozen-candidate pass)
DEFAULT_MAX_TRIALS = 200


@dataclass
class ShrinkResult:
    """Outcome of one :func:`shrink_bundle` run."""

    #: the input bundle, untouched
    original: Dict[str, Any]
    #: the minimal bundle still reproducing the failure (== original when
    #: no shrink step was accepted)
    minimal: Dict[str, Any]
    #: every candidate tried: {step, dimension, from, to, accepted, size}
    log: List[Dict[str, Any]] = field(default_factory=list)
    #: replay invocations spent
    trials: int = 0
    initial_size: int = 0
    final_size: int = 0

    @property
    def shrunk(self) -> bool:
        return self.final_size < self.initial_size

    def render(self) -> str:
        lines = [
            f"shrink: size {self.initial_size} -> {self.final_size} "
            f"in {self.trials} replays "
            f"({sum(1 for e in self.log if e['accepted'])} accepted steps)"
        ]
        for entry in self.log:
            mark = "+" if entry["accepted"] else "-"
            lines.append(
                f"  {mark} {entry['dimension']}: {entry['from']} -> "
                f"{entry['to']} (size {entry['size']})")
        return "\n".join(lines)


def scenario_size(scenario: Any) -> int:
    """Monotone scenario-size metric (knobs the shrinker may lower)."""
    return (scenario.total_wgs + scenario.wgs_per_group
            + scenario.max_wgs_per_cu + scenario.iterations
            + scenario.episodes)


def bundle_size(request: Any) -> int:
    """Combined size of a request: scenario knobs + fault-plan weight."""
    total = scenario_size(request.scenario)
    plan = request.scenario.fault_plan
    if plan is not None:
        total += plan.weight()
    return total


def _halve(obj: Any, knob: str) -> Tuple[str, str, Any]:
    """(from, to, ``obj`` with ``knob`` halved)."""
    value = getattr(obj, knob)
    return str(value), str(value // 2), replace(obj, **{knob: value // 2})


def _plan_candidates(
    plan: FaultPlan,
) -> Iterator[Tuple[str, str, str, FaultPlan]]:
    """(dimension, from, to, candidate-plan) reductions, fixed order:
    drop whole families first (biggest steps), then thin each family."""
    for key in ("storm", "notify", "mem", "predictor"):
        part = getattr(plan, key)
        if part is not None:
            yield (f"plan.{key}", "present", "dropped",
                   plan.with_part(key, None))

    def halve(key: str, knob: str) -> Iterator[Tuple[str, str, str, Any]]:
        part = getattr(plan, key)
        if part is not None and getattr(part, knob) > 1:
            src, dst, smaller = _halve(part, knob)
            yield (f"plan.{key}.{knob}", src, dst,
                   plan.with_part(key, smaller))

    yield from halve("storm", "storms")
    yield from halve("storm", "severity")
    notify = plan.notify
    if notify is not None and notify.drop_prob > 0 and notify.delay_prob > 0:
        for knob in ("delay_prob", "drop_prob"):
            yield (f"plan.notify.{knob}", str(getattr(notify, knob)), "0",
                   plan.with_part("notify", replace(notify, **{knob: 0.0})))
    yield from halve("mem", "spikes")
    yield from halve("predictor", "insertions")


def _scenario_candidates(scenario: Any) -> Iterator[Tuple[str, str, str, Any]]:
    """Halving reductions of the scenario's scale knobs, fixed order.
    ``total_wgs`` stays a multiple of ``wgs_per_group`` so work-group
    grids remain well-formed."""
    total, per_group = scenario.total_wgs, scenario.wgs_per_group
    allowed = {
        "total_wgs": total > per_group and (total // 2) % per_group == 0,
        "wgs_per_group": per_group > 1 and total % (per_group // 2) == 0,
    }
    for knob in ("total_wgs", "wgs_per_group", "max_wgs_per_cu",
                 "iterations", "episodes"):
        if allowed.get(knob, getattr(scenario, knob) > 1):
            yield (f"scenario.{knob}", *_halve(scenario, knob))


def _candidates(request: Any) -> Iterator[Tuple[str, str, str, Any]]:
    """Every one-step reduction of a request, deterministic order:
    fault-plan shrinks first (they usually cut replay time the most),
    then scenario scale."""
    scenario = request.scenario
    if scenario.fault_plan is not None:
        for dimension, src, dst, plan in _plan_candidates(scenario.fault_plan):
            yield (dimension, src, dst,
                   replace(request,
                           scenario=replace(scenario, fault_plan=plan)))
    for dimension, src, dst, shrunk in _scenario_candidates(scenario):
        yield (dimension, src, dst, replace(request, scenario=shrunk))


def shrink_bundle(
    bundle: Dict[str, Any],
    max_trials: int = DEFAULT_MAX_TRIALS,
    replay: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
) -> ShrinkResult:
    """Minimize a failing bundle of either kind while preserving its
    failure; the kind's :data:`~repro.recovery.bundle.KINDS` entry
    supplies the size metric and the candidate reductions.

    The input bundle must reproduce (its replay must match its expected
    clause) — a bundle that does not reproduce as-is cannot be shrunk
    meaningfully and raises :class:`ReproError`. ``replay`` overrides
    the replay function (unit tests substitute a synthetic predicate).
    """
    # lazy: matrix (via bundle) must stay import-cycle-free with recovery
    from repro.recovery.bundle import bundle_kind, make_bundle, \
        replay_bundle

    kind = bundle_kind(bundle)
    size, candidates = kind.hook("size"), kind.hook("candidates")
    replay = replay or replay_bundle
    expected = bundle["expected"]

    def bundle_for(request: Any) -> Dict[str, Any]:
        return make_bundle(request, failure=bundle.get("failure"),
                           expected=expected)

    trials = 0

    def reproduces(request: Any) -> bool:
        nonlocal trials
        trials += 1
        try:
            return bool(replay(bundle_for(request))["reproduced"])
        except ReproError:
            return False  # candidate spec is not even constructible

    current = kind.hook("codec").from_spec(bundle["request"])
    initial_size = size(current)
    if not reproduces(current):
        raise ReproError(
            "bundle does not reproduce its recorded failure as-is; "
            "nothing to shrink (re-record it or check the code "
            "fingerprint in its provenance)")

    log: List[Dict[str, Any]] = []
    step = 0
    improved = True
    while improved and trials < max_trials:
        improved = False
        current_size = size(current)
        for dimension, src, dst, candidate in candidates(current):
            if trials >= max_trials:
                break
            candidate_size = size(candidate)
            if candidate_size >= current_size:
                continue  # not a strict reduction; skip without a replay
            accepted = reproduces(candidate)
            step += 1
            log.append({
                "step": step,
                "dimension": dimension,
                "from": src,
                "to": dst,
                "accepted": accepted,
                "size": candidate_size,
            })
            if accepted:
                current = candidate
                improved = True
                break  # restart candidate enumeration from the new point

    return ShrinkResult(
        original=bundle,
        minimal=bundle_for(current),
        log=log,
        trials=trials,
        initial_size=initial_size,
        final_size=size(current),
    )
