"""Crash-consistency harness for the durable-state layer.

The repo's durability claims — atomic, exactly-once result-cache
commits, recoverable fabric leases, resumable checkpoint manifests —
were only ever exercised by process-kill chaos, never by the failure
modes real filesystems exhibit: torn writes, data lost because it was
never fsynced, EIO/ENOSPC, renames that land before their data. This
package turns those claims into executable specs:

:mod:`repro.durability.vfs`
    a deterministic I/O gateway every durable-state writer goes
    through — records an operation log and injects seeded faults at
    content-addressed injection points, replayable from ``(seed,
    plan)`` exactly like :mod:`repro.faults`.
:mod:`repro.durability.crashstates`
    an ALICE/CrashMonkey-style enumerator turning one operation log
    into the set of legal post-crash disk images, materialized into
    scratch directories for recovery-path testing.
:mod:`repro.durability.harness`
    the subsystem scenarios (result cache, checkpoint manifest, fabric
    leases and sweep document), their recovery invariants, and the CLI
    behind ``python -m repro durability`` / ``make durability-smoke``.
"""

from repro.durability.vfs import (  # noqa: F401
    DurabilityPlan, IOGateway, OpRecord, armed, current_gateway,
    durability_plan_names, named_durability_plan, reset_stats,
    stats_snapshot, write_atomic_text,
)
from repro.durability.crashstates import (  # noqa: F401
    CrashState, enumerate_crash_states, materialize,
)
