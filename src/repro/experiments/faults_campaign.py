"""Fault-injection campaign: the DESIGN.md IFP table, adversarially.

``python -m repro faults`` sweeps named fault plans (see
:mod:`repro.faults.plan`) across benchmarks × policies and checks the
paper's central claim under fire:

- policies that provide IFP (Timeout, Mon*, AWG, MinResume) must
  *complete* every plan — preemption storms, dropped/delayed notifies,
  memory-latency spikes, Bloom-filter sabotage — because the backstop
  and straggler timers recover anything the fault dropped;
- policies without IFP (Baseline, Sleep) must *detectably* deadlock
  under any plan that evicts WGs (a baseline GPU cannot restore a
  context-switched WG): the run ends with ``deadlocked=True`` and a
  structured stall diagnosis, never a silent hang.

Anything else is a **violation**, reported row by row and reflected in
the process exit status. Every cell is a pure function of
``(scenario seed, fault plan)``, so a violating cell can be replayed
bit-exactly from the printed spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.policies import (
    PolicySpec, awg, baseline, monnr_all, monnr_one, timeout,
)
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import Scenario
from repro.faults.plan import FaultPlan, named_plan, plan_names
from repro.workloads.registry import benchmark_names

#: the campaign's machine scale: every cell sees the fault schedule land
#: well before completion, and deadlocks are declared within a few
#: watchdog windows
CAMPAIGN_SCALE = Scenario(
    label="fault-campaign",
    total_wgs=32,
    wgs_per_group=4,
    max_wgs_per_cu=4,
    iterations=2,
    episodes=3,
    deadlock_window=200_000,
)

#: smoke keeps two benchmarks but enough episodes/iterations that every
#: run outlives the first storm strike (10k cycles in), so WG-evicting
#: plans actually land instead of arriving after completion
SMOKE_SCALE = CAMPAIGN_SCALE.scaled(
    label="fault-smoke", total_wgs=16, iterations=1, episodes=8,
)

SMOKE_BENCHMARKS = ["SPM_G", "TB_LG"]


def default_policies() -> List[PolicySpec]:
    """Baseline (no IFP) plus the IFP ladder the paper argues for."""
    return [baseline(), timeout(20_000), monnr_all(), monnr_one(), awg()]


@dataclass
class CampaignResult:
    """Campaign table plus the IFP-contract verdicts."""

    table: ExperimentResult
    violations: List[str] = field(default_factory=list)
    matrix: Optional[MatrixResult] = None
    #: repro bundles written for violating cells (with ``bundle_dir``)
    bundles: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return self.table.render()


def _expectation(policy: PolicySpec, plan: FaultPlan) -> str:
    return ("complete" if policy.provides_ifp or not plan.causes_resource_loss
            else "deadlock")


def _emit_violation_bundles(
    bundle_dir, violating, shrink: bool,
) -> List[str]:
    """Write one repro bundle per replayable violating cell; with
    ``shrink`` also write the delta-debugged minimal bundle (named by
    its content, like every bundle) and, next to the source bundle, a
    ``.shrinklog.json`` whose ``minimal`` field is the minimal
    bundle's path."""
    import json

    from repro.durability import vfs
    from repro.errors import ReproError
    from repro.recovery.bundle import make_bundle, write_bundle
    from repro.recovery.shrink import shrink_bundle

    paths: List[str] = []
    for request, cell in violating:
        if cell.result is not None and cell.result.deadlocked:
            bundle = make_bundle(request, result=cell.result)
        elif (cell.failure is not None
              and cell.failure.get("type") != "WorkerCrashError"):
            bundle = make_bundle(request, failure=cell.failure)
        else:
            continue  # e.g. completed-when-deadlock-expected: no failure
        path = write_bundle(bundle, bundle_dir)
        paths.append(str(path))
        if not shrink:
            continue
        try:
            shrunk = shrink_bundle(bundle)
        except ReproError:
            continue  # not reproducible in-process; keep the full bundle
        minimal = write_bundle(shrunk.minimal, bundle_dir)
        log_path = path.with_name(path.stem + ".shrinklog.json")
        vfs.write_atomic_text(log_path, json.dumps({
            "source": str(path),
            "minimal": str(minimal),
            "initial_size": shrunk.initial_size,
            "final_size": shrunk.final_size,
            "trials": shrunk.trials,
            "log": shrunk.log,
        }, indent=2, sort_keys=True))
        paths.append(str(log_path))
    return paths


def run(
    seed: int = 1,
    smoke: bool = False,
    benchmarks: Optional[List[str]] = None,
    policies: Optional[List[PolicySpec]] = None,
    plans: Optional[List[FaultPlan]] = None,
    scenario: Optional[Scenario] = None,
    jobs: Optional[int] = None,
    cache="default",
    bundle_dir=None,
    shrink: bool = False,
) -> CampaignResult:
    """Run the campaign; see the module docstring for the contract.

    With ``bundle_dir`` set, every violating cell that carries a
    replayable failure (a deadlock diagnosis or a raised exception)
    emits a repro bundle there; ``shrink=True`` additionally minimizes
    each bundle with :func:`repro.recovery.shrink.shrink_bundle`."""
    scenario = scenario or (SMOKE_SCALE if smoke else CAMPAIGN_SCALE)
    scenario = scenario.scaled(seed=seed)
    benchmarks = benchmarks or (
        SMOKE_BENCHMARKS if smoke else benchmark_names())
    policies = policies or default_policies()
    plans = plans or [named_plan(name, seed=seed) for name in plan_names()]

    requests = [
        RunRequest(bench, policy, scenario.scaled(fault_plan=plan),
                   # deadlocked memory is mid-flight by design: skip the
                   # final-state validator, the diagnosis is the artifact
                   validate=_expectation(policy, plan) == "complete")
        for plan in plans
        for bench in benchmarks
        for policy in policies
    ]
    matrix = run_matrix(requests, jobs=jobs, cache=cache,
                        bundle_dir=bundle_dir)

    table = ExperimentResult(
        title=f"Fault campaign (seed={seed}, "
              f"{scenario.label}): cycles, or the failure mode",
        columns=[p.name for p in policies],
        row_label="benchmark × plan",
    )
    violations: List[str] = []
    misses: List[str] = []
    violating_cells = []
    index = 0
    for plan in plans:
        for bench in benchmarks:
            row = f"{bench} × {plan.name}"
            for policy in policies:
                cell = matrix.cells[index]
                index += 1
                expect = _expectation(policy, plan)
                if cell.failure is not None:
                    table.add_row(row, **{policy.name: cell.failure["type"]})
                    violations.append(
                        f"{row} / {policy.name}: cell failed "
                        f"({cell.failure['type']}: {cell.failure['message']})"
                    )
                    violating_cells.append((cell.request, cell))
                    continue
                res = cell.result
                if res.ok:
                    table.add_row(row, **{policy.name: res.cycles})
                    if expect == "deadlock":
                        # Only a breach if an eviction actually landed —
                        # a run that finished before the first strike
                        # never lost a WG (a coverage miss, noted below).
                        losses = res.stats.get("faults.storm.cu_losses", 0)
                        if losses:
                            violations.append(
                                f"{row} / {policy.name}: non-IFP policy "
                                f"completed despite {int(losses)} CU "
                                f"loss(es) (plan {plan.describe()})"
                            )
                        else:
                            misses.append(f"{row} / {policy.name}")
                    continue
                kind = (res.diagnosis or {}).get("kind", res.reason)
                table.add_row(row, **{policy.name: kind.upper()})
                if expect == "complete":
                    violations.append(
                        f"{row} / {policy.name}: IFP policy failed to "
                        f"complete ({res.reason} at cycle {res.cycles:,}, "
                        f"plan {plan.describe()})"
                    )
                    violating_cells.append((cell.request, cell))
                elif res.diagnosis is None:
                    violations.append(
                        f"{row} / {policy.name}: deadlock without a "
                        f"structured diagnosis ({res.reason})"
                    )
                    violating_cells.append((cell.request, cell))

    table.notes.append(
        "IFP contract: IFP policies complete every plan; non-IFP "
        "policies detectably deadlock under WG-evicting plans"
    )
    if misses:
        table.notes.append(
            f"coverage: {len(misses)} cell(s) completed before the first "
            f"strike landed (no eviction occurred): {', '.join(misses)}"
        )
    if violations:
        table.notes.append(f"VIOLATIONS: {len(violations)}")
        table.notes.extend(f"  {v}" for v in violations)
    else:
        table.notes.append("IFP contract held for every cell")
    table.notes.append(matrix.summary())
    bundles: List[str] = []
    if bundle_dir is not None and violating_cells:
        bundles = _emit_violation_bundles(bundle_dir, violating_cells, shrink)
        table.notes.append(
            f"wrote {len(bundles)} repro-bundle file(s) to {bundle_dir}")
    return CampaignResult(table=table, violations=violations, matrix=matrix,
                          bundles=bundles)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
