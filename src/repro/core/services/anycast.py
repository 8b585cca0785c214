"""Anycast and priocast (§3.2), plus the service-chaining extension.

**Anycast** adds one test at the beginning of the template: if the packet's
group id matches a group this node belongs to, the packet is delivered to the
node's *self* port; otherwise the traversal continues, so the packet reaches
every available node until a receiver is found.  No controller interaction is
needed (Table 2: 0 out-of-band messages).

**Priocast** delivers to the *highest-priority* group member using two
traversal phases (``start`` becomes ternary): phase 1 lets every member bid
by updating ``opt_id``/``opt_val`` in the packet; at the root's ``Finish``
the traversal restarts (phase 2, via the recorded ``firstport``) and the
packet walks the same DFS until the winner recognizes its own id and
delivers locally.  Non-root nodes detect the phase switch by seeing the
packet arrive from their parent port again.

``opt_id`` stores ``node + 1`` so that 0 keeps meaning "no receiver found".

**Service chains** (the paper's remark, citing [14]): a sequence of group
ids is resolved leg by leg; each leg is one anycast traversal re-injected at
the previous leg's delivery point (see :class:`ServiceChainRunner` in
:mod:`repro.core.runtime`).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.fields import (
    FIELD_FIRST_PORT,
    FIELD_GID,
    FIELD_OPT_ID,
    FIELD_OPT_VAL,
    FIELD_START,
    OPT_VAL_BITS,
)
from repro.core.services.base import HookContext, Service
from repro.openflow.packet import LOCAL_PORT, NO_PORT


def _check_gid(gid: int) -> None:
    if gid <= 0:
        raise ValueError("group ids must be positive")


class AnycastService(Service):
    """Deliver to any member of the requested group, if one is reachable."""

    name = "anycast"
    service_id = 3

    def __init__(self, groups: Mapping[int, set[int]] | None = None) -> None:
        #: gid -> set of member node ids.
        self.groups: dict[int, set[int]] = {}
        for gid, members in (groups or {}).items():
            _check_gid(gid)
            self.groups[gid] = set()
            for node in members:
                self.add_member(gid, node)

    def add_member(self, gid: int, node: int) -> None:
        _check_gid(gid)
        self.groups.setdefault(gid, set()).add(node)

    def groups_of(self, node: int) -> frozenset[int]:
        return frozenset(g for g, members in self.groups.items() if node in members)

    def pre_dispatch(self, ctx: HookContext) -> int | None:
        gid = ctx.packet.get(FIELD_GID)
        if gid and gid in self.groups_of(ctx.node):
            return LOCAL_PORT
        return None


class PriocastService(Service):
    """Deliver to the highest-priority member of the requested group."""

    name = "priocast"
    service_id = 4

    def __init__(
        self, priorities: Mapping[int, Mapping[int, int]] | None = None
    ) -> None:
        #: gid -> {node: priority}; priorities must fit OPT_VAL_BITS.
        self.priorities: dict[int, dict[int, int]] = {}
        for gid, members in (priorities or {}).items():
            _check_gid(gid)
            self.priorities[gid] = {}
            for node, priority in members.items():
                self.add_member(gid, node, priority)

    def add_member(self, gid: int, node: int, priority: int) -> None:
        _check_gid(gid)
        if not 1 <= priority < (1 << OPT_VAL_BITS):
            raise ValueError(
                f"priority must be in [1, {(1 << OPT_VAL_BITS) - 1}]"
            )
        self.priorities.setdefault(gid, {})[node] = priority

    def priority_of(self, node: int, gid: int) -> int | None:
        return self.priorities.get(gid, {}).get(node)

    def groups_of(self, node: int) -> frozenset[int]:
        return frozenset(
            g for g, members in self.priorities.items() if node in members
        )

    # -- phase 1: bidding -------------------------------------------------

    def _bid(self, ctx: HookContext) -> None:
        gid = ctx.packet.get(FIELD_GID)
        priority = self.priority_of(ctx.node, gid) if gid else None
        if priority is None:
            return
        if ctx.packet.get(FIELD_OPT_VAL) < priority:
            ctx.packet.set(FIELD_OPT_VAL, priority)
            ctx.packet.set(FIELD_OPT_ID, ctx.node + 1)

    def on_trigger(self, ctx: HookContext) -> None:
        # The root is a potential receiver too; Algorithm 1's start=0 branch
        # never calls First_visit, so the bid happens here.
        self._bid(ctx)

    def first_visit(self, ctx: HookContext) -> None:
        if ctx.packet.get(FIELD_START) == 1:
            self._bid(ctx)

    # -- phase 2: delivery -------------------------------------------------

    def visit_from_cur(self, ctx: HookContext) -> None:
        packet = ctx.packet
        if packet.get(FIELD_START) != 2:
            return
        if ctx.in_port != ctx.par or ctx.par == NO_PORT:
            return
        # Arrival from the parent port: only possible when a new traversal
        # phase starts (the paper's phase-switch detection).
        if packet.get(FIELD_OPT_ID) == ctx.node + 1:
            ctx.out = LOCAL_PORT
            ctx.skip_sweep = True
        else:
            ctx.out = 1  # restart this node's sweep for phase 2

    def send_next_neighbor(self, ctx: HookContext) -> None:
        if ctx.par == NO_PORT and ctx.cur == NO_PORT:
            ctx.packet.set(FIELD_FIRST_PORT, ctx.out)

    def finish(self, ctx: HookContext) -> None:
        packet = ctx.packet
        if packet.get(FIELD_START) == 1:
            opt_id = packet.get(FIELD_OPT_ID)
            if opt_id == ctx.node + 1:
                # The root itself is the best receiver.
                ctx.out = LOCAL_PORT
            elif opt_id != 0:
                # Begin the second traversal along the recorded first port.
                packet.set(FIELD_START, 2)
                first = packet.get(FIELD_FIRST_PORT)
                ctx.out = first
                ctx.cur = first
            # else: no receiver exists; drop (out stays 0).
        # start == 2 finishing at the root means the winner vanished
        # mid-run; the packet is dropped (out stays 0).
