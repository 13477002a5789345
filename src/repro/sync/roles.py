"""Work-group role annotations for the static progress analyzer.

The progress pass (:mod:`repro.analysis.progress`) derives a wait-for
graph between *roles* — the distinct jobs work-groups take inside one
synchronization protocol (lock holder vs. contender, barrier member vs.
group leader vs. root). Most of that structure is inferred from the
CFGs: a blessed wait names the storage family it polls, the matching
release write names who satisfies it, and role branches show up as
guards on ``is_group_leader`` / ``group == 0`` tests.

Where inference cannot see through an indirection, kernels carry an
explicit :func:`kernel_roles` annotation. The canonical example is
``SleepMutex``: the waiter polls ``self._slot(ticket)`` — a *computed*
address — and only the ``waits=`` hint tells the analyzer that the slot
family is written by the lock holder and has exactly one waiter per
word (Figure 10's decentralized queue). Annotations are deliberately
dual-readable: they attach attributes for runtime introspection *and*
are plain enough for the AST pass to parse the decorator call without
importing the module.

This module is import-light on purpose (stdlib only): it is imported by
the ``repro.sync`` primitives and the workload registry, and must not
drag the simulator in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

#: attribute names the static pass looks for on annotated functions
ROLES_ATTR = "__repro_roles__"
WAIT_HINTS_ATTR = "__repro_wait_hints__"


@dataclass(frozen=True)
class WaitHint:
    """One wait-for edge the analyzer should trust over inference.

    ``base`` is the storage family the wait polls (the attribute or
    callee name its address expression resolves to, e.g. ``"_slot"``
    for ``self._slot(ticket)``); ``waiter`` / ``updater`` are role
    names; ``single_waiter`` marks a decentralized word with at most
    one WG parked on it (Table 2's "waiters per condition = 1").
    """

    base: str
    waiter: str
    updater: str
    single_waiter: bool = False


@dataclass(frozen=True)
class SyncProtocol:
    """The synchronization structure of one benchmark, statically known.

    ``primitive`` names the class in ``repro.sync`` whose methods carry
    the protocol's waits (``""`` for benchmarks that synchronize through
    the kernel body alone); ``body_builder`` names the heterosync
    factory whose inner kernel drives it. ``decentralized`` follows the
    paper's Table 2 split: one waiter and one update per sync variable
    (SleepMutex, LFTreeBarr) vs. shared counters everyone polls.
    """

    kind: str  # "mutex" | "barrier"
    primitive: str  # class name in repro.sync, e.g. "SpinMutex"
    body_builder: str  # factory in repro.workloads.heterosync
    decentralized: bool
    roles: Tuple[str, ...]


def mutex_protocol(primitive: str, decentralized: bool = False) -> SyncProtocol:
    return SyncProtocol(kind="mutex", primitive=primitive,
                        body_builder="make_mutex_body",
                        decentralized=decentralized,
                        roles=("holder", "contender"))


def barrier_protocol(primitive: str, decentralized: bool = False,
                     roles: Tuple[str, ...] = ()) -> SyncProtocol:
    return SyncProtocol(kind="barrier", primitive=primitive,
                        body_builder="make_barrier_body",
                        decentralized=decentralized,
                        roles=roles or ("member", "leader"))


def kernel_roles(*roles: str,
                 waits: Tuple[WaitHint, ...] = ()) -> Callable:
    """Annotate a kernel (or sync-primitive method) with its WG roles.

    Purely declarative: returns the function unchanged apart from two
    introspection attributes. Example::

        @kernel_roles("holder", "contender",
                      waits=(WaitHint("_slot", waiter="contender",
                             updater="holder", single_waiter=True),))
        def acquire(self, ctx): ...
    """

    def deco(fn: Callable) -> Callable:
        setattr(fn, ROLES_ATTR, tuple(roles))
        setattr(fn, WAIT_HINTS_ATTR, tuple(waits))
        return fn

    return deco
