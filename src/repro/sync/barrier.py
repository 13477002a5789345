"""Two-level tree barriers (HeteroSync AtomicTreeBarr / LFTreeBarr).

Both are episode-counted (monotonic counters / flags) so that Mesa-style
re-checking is safe: the software re-check predicate is ``>= target``
while the hardware waiting condition matches the target value exactly.

- :class:`AtomicTreeBarrier` — *centralized*: per-group arrival counters
  plus one global counter. Many waiters share each condition and the
  counter receives many unique updates, which is exactly the pattern
  AWG's Bloom-filter predictor classifies as "resume all".
- :class:`LFTreeBarrier` — *decentralized / lock-free*: per-WG flags with
  exactly one waiter and one update per condition, the pattern where
  sporadic notification (MonRS) is already efficient.

The ``exchange`` flag adds a local-data-share exchange phase per episode
(the TBEX/LFTBEX variants).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import DeviceError
from repro.sync.roles import kernel_roles

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device_api import WavefrontCtx
    from repro.gpu.gpu import GPU


class _TreeTopology:
    """Group structure shared by both barrier flavours."""

    def __init__(self, total_wgs: int, wgs_per_group: int) -> None:
        if total_wgs < 1 or wgs_per_group < 1:
            raise DeviceError("barrier needs positive WG counts")
        if total_wgs % wgs_per_group != 0:
            raise DeviceError(
                f"total_wgs ({total_wgs}) must be a multiple of "
                f"wgs_per_group ({wgs_per_group})"
            )
        self.total_wgs = total_wgs
        self.wgs_per_group = wgs_per_group
        self.num_groups = total_wgs // wgs_per_group

    def group_of(self, wg_index: int) -> int:
        return wg_index // self.wgs_per_group

    def is_group_leader(self, wg_index: int) -> bool:
        return wg_index % self.wgs_per_group == 0


class AtomicTreeBarrier(_TreeTopology):
    """Centralized two-level tree barrier on monotonic atomic counters."""

    def __init__(
        self,
        gpu: "GPU",
        total_wgs: int,
        wgs_per_group: int,
        exchange: bool = False,
        exchange_cycles: int = 200,
    ) -> None:
        super().__init__(total_wgs, wgs_per_group)
        self.gpu = gpu
        self.exchange = exchange
        self.exchange_cycles = exchange_cycles
        self.local_counters = gpu.alloc_sync_vars(self.num_groups)
        self.global_counter = gpu.alloc_sync_vars(1)[0]
        self._last_episode: dict = {}

    @kernel_roles("member", "leader")
    def arrive(self, ctx: "WavefrontCtx", wg_index: int, episode: int):
        """Join barrier episode ``episode``.

        Episodes are a monotonic counter design: every WG must join
        episodes 0, 1, 2, ... consecutively (skipping one would wait on a
        count the arrivals can never reach)."""
        last = self._last_episode.get(wg_index, -1)
        if episode != last + 1:
            raise DeviceError(
                f"WG {wg_index} joined barrier episode {episode} after "
                f"{last}; episodes must be consecutive (0, 1, 2, ...)"
            )
        self._last_episode[wg_index] = episode
        if self.exchange:
            yield from self._exchange_phase(ctx, episode)
        group = self.group_of(wg_index)
        local_addr = self.local_counters[group]
        local_target = (episode + 1) * self.wgs_per_group
        old = yield from ctx.atomic_add(local_addr, 1)
        if old + 1 == local_target:
            # Last arrival of the group joins the global level.
            yield from ctx.atomic_add(self.global_counter, 1)
        else:
            yield from ctx.wait_for_value(
                local_addr,
                expected=local_target,
                satisfied=lambda v, t=local_target: v >= t,
            )
        # Everyone waits for all groups to have arrived globally.
        global_target = (episode + 1) * self.num_groups
        yield from ctx.wait_for_value(
            self.global_counter,
            expected=global_target,
            satisfied=lambda v, t=global_target: v >= t,
        )
        ctx.progress("barrier_episode")

    def _exchange_phase(self, ctx: "WavefrontCtx", episode: int):
        """TBEX: exchange data through the LDS before arriving."""
        yield from ctx.lds_write(episode % 64, ctx.wg_id + episode)
        yield from ctx.compute(self.exchange_cycles)
        yield from ctx.lds_read(episode % 64)


class LFTreeBarrier(_TreeTopology):
    """Decentralized (lock-free) two-level tree barrier on per-WG flags.

    Arrival: each member publishes its episode number on its own flag;
    the group leader gathers member flags, publishes the group flag; the
    root gathers group flags and publishes per-group release flags;
    leaders publish per-member release flags. Every condition has exactly
    one waiter and one satisfying update."""

    def __init__(
        self,
        gpu: "GPU",
        total_wgs: int,
        wgs_per_group: int,
        exchange: bool = False,
        exchange_cycles: int = 200,
    ) -> None:
        super().__init__(total_wgs, wgs_per_group)
        self.gpu = gpu
        self.exchange = exchange
        self.exchange_cycles = exchange_cycles
        self.member_flags: List[int] = gpu.alloc_sync_vars(total_wgs)
        self.member_release: List[int] = gpu.alloc_sync_vars(total_wgs)
        self.group_flags: List[int] = gpu.alloc_sync_vars(self.num_groups)
        self.group_release: List[int] = gpu.alloc_sync_vars(self.num_groups)
        self._last_episode: dict = {}

    @kernel_roles("member", "leader", "root")
    def arrive(self, ctx: "WavefrontCtx", wg_index: int, episode: int):
        last = self._last_episode.get(wg_index, -1)
        if episode != last + 1:
            raise DeviceError(
                f"WG {wg_index} joined barrier episode {episode} after "
                f"{last}; episodes must be consecutive (0, 1, 2, ...)"
            )
        self._last_episode[wg_index] = episode
        if self.exchange:
            yield from self._exchange_phase(ctx, episode)
        group = self.group_of(wg_index)
        target = episode + 1
        if self.is_group_leader(wg_index):
            # Gather the group's members.
            first = group * self.wgs_per_group
            for member in range(first + 1, first + self.wgs_per_group):
                yield from ctx.wait_for_value(
                    self.member_flags[member],
                    expected=target,
                    satisfied=lambda v, t=target: v >= t,
                )
            yield from ctx.atomic_store(self.group_flags[group], target)
            if group == 0:
                # The root gathers all groups, then releases them.
                for g in range(1, self.num_groups):
                    yield from ctx.wait_for_value(
                        self.group_flags[g],
                        expected=target,
                        satisfied=lambda v, t=target: v >= t,
                    )
                for g in range(self.num_groups):
                    yield from ctx.atomic_store(self.group_release[g], target)
            else:
                yield from ctx.wait_for_value(
                    self.group_release[group],
                    expected=target,
                    satisfied=lambda v, t=target: v >= t,
                )
            # Release the group's members.
            for member in range(first + 1, first + self.wgs_per_group):
                yield from ctx.atomic_store(self.member_release[member], target)
        else:
            yield from ctx.atomic_store(self.member_flags[wg_index], target)
            yield from ctx.wait_for_value(
                self.member_release[wg_index],
                expected=target,
                satisfied=lambda v, t=target: v >= t,
            )
        ctx.progress("barrier_episode")

    def _exchange_phase(self, ctx: "WavefrontCtx", episode: int):
        yield from ctx.lds_write(episode % 64, ctx.wg_id * 3 + episode)
        yield from ctx.compute(self.exchange_cycles)
        yield from ctx.lds_read(episode % 64)
