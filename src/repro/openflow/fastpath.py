"""Compiled switch fast path: indexed dispatch for the packet hot loop.

The interpreted pipeline (:meth:`repro.openflow.switch.Switch.process`)
resolves every packet with a linear priority scan over each table's entries,
building a full context dict and calling :meth:`Match.hits` per entry.  That
is faithful but slow — the paper's whole point is that match-action lookup is
*cheap*, and our chaos campaigns, model-check replays and scalability benches
should be bottlenecked by the algorithm, not the emulation.

This module compiles each :class:`~repro.openflow.flowtable.FlowTable` into
an indexed dispatch structure and each entry's instructions into a
pre-resolved closure, so the hot loop does dict lookups instead of per-entry
match evaluation.  Semantics are *identical* to the interpreter — including
entry/group/bucket packet counters, SELECT round-robin cursors, fast-failover
liveness (consulted per packet, never cached), error messages, and error
timing — and the differential suite in ``tests/test_fastpath_differential.py``
asserts byte-identical observables between both engines.

Index layout (see docs/FASTPATH.md)
-----------------------------------

Entries are partitioned by *signature*: the sorted tuple of ``(field, mask)``
pairs the entry tests (``mask None`` = exact match on all bits).  Tests with
``mask == 0`` constrain nothing (OXM permits such TLVs) and are dropped from
the signature.  For each signature the compiler builds one hash bucket map::

    key = tuple(context[field] & mask for field, mask in signature)
    buckets[key] -> candidates sorted by (-priority, seq)

Because a signature covers *all* of an entry's tests, a key hit is exactly a
match hit.  Entries with an empty signature (table-miss wildcards, default
gotos) form the always-matching residue list.  A lookup probes each
signature's map once plus the residue head and picks the best candidate by
``(-priority, seq)`` — the same priority-then-insertion-order rule the
interpreter documents.

Invalidation
------------

Compiled tables are cached per ``(table, FlowTable.version)``; compiled group
programs per ``GroupTable.version``.  Any table mutation (add / remove /
modify) or group addition bumps the respective version and the stale compile
is dropped lazily on the next packet.  Fast-failover bucket selection calls
the switch's liveness oracle on every execution, so port-liveness flips take
effect immediately — the same path as the interpreter, with no invalidation
needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.openflow.actions import (
    Action,
    DecTtl,
    GroupAction,
    Instructions,
    Output,
    PopLabel,
    PushLabel,
    SetField,
)
from repro.openflow.errors import GroupError, PipelineError, TableError
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.group import Group, GroupType
from repro.openflow.packet import IN_PORT, Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (switch imports us)
    from repro.openflow.switch import PacketOut, Switch

#: Emission callback, same contract as :data:`repro.openflow.actions.EmitFn`.
EmitFn = Callable[[int, "Packet"], None]
#: A compiled operation: ``op(packet, emit, in_port, active_groups)``.
OpFn = Callable[[Packet, EmitFn, int, frozenset], None]

_EMPTY_ACTIVE: frozenset[int] = frozenset()


class CompiledEntry:
    """One flow entry with its instructions pre-resolved to closures."""

    __slots__ = ("entry", "sort_key", "ops", "goto", "write_metadata")

    def __init__(
        self,
        entry: FlowEntry,
        ops: tuple[OpFn, ...] = (),
    ) -> None:
        self.entry = entry
        # The interpreter's documented rule: highest priority wins, ties
        # break by insertion order (FlowEntry.seq).
        self.sort_key = (-entry.priority, entry.seq)
        self.ops = ops
        self.goto = entry.instructions.goto_table
        self.write_metadata = entry.instructions.write_metadata


# --------------------------------------------------------------------- #
# Key extraction                                                        #
# --------------------------------------------------------------------- #

#: A field getter: ``get(fields, in_port, metadata) -> int``.
_GetFn = Callable[[dict, int, int], int]

#: Compiled key extractors, cached per signature (recompiles are frequent
#: under churny workloads; the extractor only depends on the signature).
_KEY_FN_CACHE: dict[tuple, _GetFn] = {}


def _slot_expr(name: str, mask: int | None) -> str:
    """The Python expression reading one signature slot from the context.

    ``in_port`` and ``metadata`` are pipeline registers, not packet fields
    (mirrors :meth:`Switch._context`); everything else reads the packet's
    field dict with the "absent reads as 0" convention.
    """
    if name == "in_port":
        expr = "ip"
    elif name == "metadata":
        expr = "md"
    else:
        expr = f"f.get({name!r}, 0)"
    if mask is not None:
        expr = f"({expr} & {mask})"
    return expr


def _make_key_fn(signature: tuple[tuple[str, int | None], ...]) -> _GetFn:
    """Compile a signature into a key extractor.

    The extractor is generated as one flat lambda (no per-field closure
    calls — this sits on the hottest path of every lookup).  Single-field
    signatures key on the bare value, avoiding a tuple allocation per
    probe.  Field names and masks are embedded via ``repr``, so arbitrary
    field-name strings are safe to compile.
    """
    key_fn = _KEY_FN_CACHE.get(signature)
    if key_fn is None:
        exprs = [_slot_expr(name, mask) for name, mask in signature]
        body = exprs[0] if len(exprs) == 1 else "(" + ", ".join(exprs) + ")"
        key_fn = eval(f"lambda f, ip, md: {body}", {"__builtins__": {}})
        _KEY_FN_CACHE[signature] = key_fn
    return key_fn


def _entry_signature(entry: FlowEntry) -> tuple[tuple[str, int | None], ...]:
    """The sorted (field, mask) shape of an entry's match.

    ``mask == 0`` tests are dropped: they constrain nothing (and OXM
    validation already forced their value to 0).
    """
    return tuple(
        sorted(
            (test.name, test.mask)
            for test in entry.match.tests.values()
            if test.mask != 0
        )
    )


def _entry_key(
    entry: FlowEntry, signature: tuple[tuple[str, int | None], ...]
):
    """The bucket key this entry occupies under *signature*."""
    values = tuple(entry.match.tests[name].value for name, _mask in signature)
    return values[0] if len(signature) == 1 else values


class FastTable:
    """One flow table compiled to signature-indexed hash dispatch."""

    __slots__ = ("table_id", "groups", "residue")

    def __init__(
        self,
        table_id: int,
        groups: list[tuple[_GetFn, dict]],
        residue: list[CompiledEntry],
    ) -> None:
        self.table_id = table_id
        #: One (key_fn, buckets) pair per distinct match signature.
        self.groups = groups
        #: Always-matching entries (empty signature), best first.
        self.residue = residue

    def lookup(
        self, fields: dict, in_port: int, metadata: int
    ) -> CompiledEntry | None:
        """Best matching compiled entry, or None (table miss).

        Equivalent to :meth:`FlowTable.lookup` minus the counter bump (the
        caller bumps, so a pure lookup stays side-effect free for tests).
        """
        best: CompiledEntry | None = None
        for key_fn, buckets in self.groups:
            candidates = buckets.get(key_fn(fields, in_port, metadata))
            if candidates is not None:
                head = candidates[0]
                if best is None or head.sort_key < best.sort_key:
                    best = head
        if self.residue:
            head = self.residue[0]
            if best is None or head.sort_key < best.sort_key:
                best = head
        return best


def compile_table(
    table: FlowTable,
    entry_factory: Callable[[FlowEntry], CompiledEntry] = CompiledEntry,
) -> FastTable:
    """Compile *table* into a :class:`FastTable`.

    *entry_factory* builds the per-entry record; the default produces
    lookup-only records (no instruction closures), which is what the fuzz
    harness uses.  :class:`FastPath` passes its full instruction compiler.
    """
    by_signature: dict[tuple, dict] = {}
    residue: list[CompiledEntry] = []
    for entry in table.entries():
        compiled = entry_factory(entry)
        signature = _entry_signature(entry)
        if not signature:
            residue.append(compiled)
            continue
        buckets = by_signature.setdefault(signature, {})
        buckets.setdefault(_entry_key(entry, signature), []).append(compiled)

    groups: list[tuple[_GetFn, dict]] = []
    for signature, buckets in by_signature.items():
        for candidates in buckets.values():
            candidates.sort(key=lambda c: c.sort_key)
        groups.append((_make_key_fn(signature), buckets))
    residue.sort(key=lambda c: c.sort_key)
    return FastTable(table.table_id, groups, residue)


# --------------------------------------------------------------------- #
# Group programs                                                        #
# --------------------------------------------------------------------- #


class _GroupProgram:
    """One group compiled to per-bucket closures (type dispatch hoisted)."""

    __slots__ = ("group", "group_type", "buckets", "has_nested")

    def __init__(
        self,
        group: Group,
        buckets: list[tuple[int | None, OpFn]],
    ) -> None:
        self.group = group
        self.group_type = group.group_type
        #: (watch_port, run_bucket) pairs, in bucket order.
        self.buckets = buckets
        #: Whether any bucket chains into another group.  Only chained
        #: executions consult the active set, so a chain-free program skips
        #: the per-execution frozenset union.
        self.has_nested = any(
            type(action) is GroupAction
            for bucket in group.buckets
            for action in bucket.actions
        )


class FastPath:
    """The compiled engine of one switch.

    Owns the per-table compile cache and the group-program cache; both are
    invalidated lazily by version comparison, so any mutation through the
    :class:`FlowTable` / :class:`GroupTable` APIs is picked up transparently
    on the next packet.
    """

    def __init__(self, switch: "Switch") -> None:
        from repro.openflow.switch import PacketOut  # import cycle guard

        self._switch = switch
        self._packet_out = PacketOut
        #: table_id -> (FlowTable.version at compile time, FastTable)
        self._tables: dict[int, tuple[int, FastTable]] = {}
        #: group_id -> compiled program (valid for _groups_version)
        self._programs: dict[int, _GroupProgram] = {}
        self._groups_version = switch.groups.version

    # -- cache management ------------------------------------------------ #

    def invalidate(self) -> None:
        """Drop every compiled artifact (recompiled lazily on next use).

        Mutations through the table/group APIs invalidate automatically;
        this hook exists for callers that mutate entry or bucket objects
        in place (see :meth:`Switch.invalidate_fast_path`).
        """
        self._tables.clear()
        self._programs.clear()
        self._groups_version = self._switch.groups.version

    def warm(self) -> None:
        """Eagerly compile every table and group program.

        Compilation is otherwise lazy (first packet pays it); benches and
        latency-sensitive starts call this so the hot loop never compiles.
        """
        self._check_groups()
        for table_id in self._switch.tables:
            self._fast_table(table_id)
        for group in self._switch.groups.groups():
            if group.group_id not in self._programs:
                self._compile_group(group.group_id)

    def _check_groups(self) -> None:
        version = self._switch.groups.version
        if version != self._groups_version:
            # Entry closures embed group programs, so a group-table change
            # invalidates the table compiles too.
            self._tables.clear()
            self._programs.clear()
            self._groups_version = version

    def _fast_table(self, table_id: int) -> FastTable | None:
        table = self._switch.tables.get(table_id)
        if table is None:
            return None
        cached = self._tables.get(table_id)
        if cached is not None and cached[0] == table.version:
            return cached[1]
        fast = compile_table(table, self._compile_entry)
        self._tables[table_id] = (table.version, fast)
        return fast

    # -- instruction compilation ----------------------------------------- #

    def _compile_entry(self, entry: FlowEntry) -> CompiledEntry:
        return CompiledEntry(entry, self._compile_actions(entry.instructions))

    def _compile_actions(self, instructions: Instructions) -> tuple[OpFn, ...]:
        ops: list[OpFn] = []
        for action in instructions.apply_actions:
            ops.extend(self._compile_action(action))
        return tuple(ops)

    def _compile_action(self, action: Action) -> list[OpFn]:
        """Compile one action to closures (possibly several, if flattened)."""
        if type(action) is SetField:
            name, value = action.name, action.value
            if value >= 0:

                def set_field(pkt, emit, in_port, active, n=name, v=value):
                    pkt.fields[n] = v

                return [set_field]
            # Negative constants raise at apply time in the interpreter;
            # fall through to the generic path to keep that timing.
        elif type(action) is Output:
            port = action.port

            def output(pkt, emit, in_port, active, p=port):
                emit(p, pkt)

            return [output]
        elif type(action) is GroupAction:
            return self._compile_group_action(action.group_id)
        elif type(action) is PushLabel:
            record = action.record

            def push(pkt, emit, in_port, active, r=record):
                pkt.stack.append(r)

            return [push]
        elif type(action) is PopLabel:
            count = action.count

            def pop(pkt, emit, in_port, active, c=count):
                stack = pkt.stack
                for _ in range(c):
                    if stack:
                        stack.pop()

            return [pop]
        elif type(action) is DecTtl:
            name = action.field_name

            def dec_ttl(pkt, emit, in_port, active, n=name):
                fields = pkt.fields
                value = fields.get(n, 0)
                fields[n] = value - 1 if value > 0 else 0

            return [dec_ttl]

        # Unknown / custom Action subclass: defer to its own apply(), so
        # custom services (docs/TUTORIAL.md) run unchanged on the fast path.
        def generic(pkt, emit, in_port, active, a=action):
            a.apply(pkt, emit, in_port)

        return [generic]

    def _compile_group_action(self, group_id: int) -> list[OpFn]:
        """A ``group`` action: flatten where safe, else an indirect call.

        Safe flattening: the group exists now, is INDIRECT with exactly one
        bucket, and that bucket contains no nested group action.  Such a
        group cannot participate in a chaining loop and has no dynamic
        selection state, so its bucket actions are inlined (counter bumps
        included).  Everything else — FF (liveness is dynamic), SELECT
        (cursor state), ALL (cloning), chains, and ids not yet installed —
        goes through :meth:`_execute_group` at packet time, exactly like the
        interpreter.
        """
        table = self._switch.groups
        if group_id in table:
            group = table.get(group_id)
            if (
                group.group_type is GroupType.INDIRECT
                and len(group.buckets) == 1
                and not any(
                    isinstance(a, GroupAction) for a in group.buckets[0].actions
                )
            ):
                bucket = group.buckets[0]
                inner = []
                for action in bucket.actions:
                    inner.extend(self._compile_action(action))

                def flattened(
                    pkt, emit, in_port, active,
                    g=group, b=bucket, ops=tuple(inner),
                ):
                    g.packet_count += 1
                    b.packet_count += 1
                    for op in ops:
                        op(pkt, emit, in_port, active)

                return [flattened]

        def indirect(pkt, emit, in_port, active, gid=group_id):
            self._execute_group(gid, pkt, emit, in_port, active)

        return [indirect]

    def _compile_group(self, group_id: int) -> _GroupProgram:
        group = self._switch.groups.get(group_id)  # GroupError if unknown
        buckets: list[tuple[int | None, OpFn]] = []
        for bucket in group.buckets:
            ops: list[OpFn] = []
            for action in bucket.actions:
                ops.extend(self._compile_action(action))

            def run_bucket(pkt, emit, in_port, active, b=bucket, os=tuple(ops)):
                b.packet_count += 1
                for op in os:
                    op(pkt, emit, in_port, active)

            buckets.append((bucket.watch_port, run_bucket))
        program = _GroupProgram(group, buckets)
        self._programs[group_id] = program
        return program

    def _execute_group(
        self,
        group_id: int,
        packet: Packet,
        emit: EmitFn,
        in_port: int,
        active: frozenset[int],
    ) -> None:
        """Run a compiled group program (semantics of GroupTable.execute)."""
        if group_id in active:
            raise GroupError(f"group chaining loop through group {group_id}")
        program = self._programs.get(group_id)
        if program is None:
            program = self._compile_group(group_id)
        group = program.group
        group.packet_count += 1
        if program.has_nested:
            active = active | {group_id}
        kind = program.group_type
        buckets = program.buckets
        if kind is GroupType.FF:
            # Liveness is consulted per execution — port flips take effect
            # immediately, the same path as the interpreter's failover.
            live = self._switch._port_live
            for watch_port, run in buckets:
                if watch_port is None or live(watch_port):
                    run(packet, emit, in_port, active)
                    return
            return  # no live bucket: drop silently (OF 1.3)
        if kind is GroupType.SELECT:
            if not buckets:
                raise GroupError(f"SELECT group {group_id} has no buckets")
            index = group.rr_next
            group.rr_next = (index + 1) % len(buckets)
            buckets[index][1](packet, emit, in_port, active)
            return
        if kind is GroupType.ALL:
            for _watch, run in buckets:
                run(packet.copy(), emit, in_port, active)
            return
        if kind is GroupType.INDIRECT:
            if buckets:
                buckets[0][1](packet, emit, in_port, active)
            return
        raise GroupError(f"unsupported group type {kind}")  # pragma: no cover

    # -- the hot loop ------------------------------------------------------ #

    def process(self, packet: Packet, in_port: int) -> "list[PacketOut]":
        """Pipeline execution, mirroring :meth:`Switch.process` exactly."""
        switch = self._switch
        self._check_groups()
        switch.packets_processed += 1
        outputs: list[PacketOut] = []
        append = outputs.append
        packet_out = self._packet_out

        def emit(port: int, pkt: Packet) -> None:
            append(packet_out(in_port if port == IN_PORT else port, pkt.copy()))

        fields = packet.fields
        metadata = 0
        table_id = 0
        steps = 0
        max_steps = switch.MAX_PIPELINE_STEPS
        while True:
            steps += 1
            if steps > max_steps:
                raise PipelineError(
                    f"switch {switch.node_id}: pipeline exceeded "
                    f"{max_steps} steps (rule loop?)"
                )
            fast = self._fast_table(table_id)
            if fast is None:
                if table_id == 0 and not switch.tables:
                    # Bare switch (factory-fresh after a reboot): table
                    # miss, not a misconfiguration — mirror Switch.process.
                    switch.table_misses += 1
                    return outputs
                raise TableError(
                    f"switch {switch.node_id}: goto to missing table {table_id}"
                )
            compiled = fast.lookup(fields, in_port, metadata)
            if compiled is None:
                switch.table_misses += 1
                return outputs
            compiled.entry.packet_count += 1
            write_metadata = compiled.write_metadata
            if write_metadata is not None:
                value, mask = write_metadata
                metadata = (metadata & ~mask) | (value & mask)
            for op in compiled.ops:
                op(packet, emit, in_port, _EMPTY_ACTIVE)
            goto = compiled.goto
            if goto is None:
                return outputs
            if goto <= table_id:
                raise PipelineError(
                    f"switch {switch.node_id}: goto_table must move forward "
                    f"({table_id} -> {goto})"
                )
            table_id = goto
