"""Discrete-event network simulator.

The simulator moves packets between *node handlers*.  A handler is any
callable ``(packet, in_port) -> list[PacketOut]`` — in practice either an
OpenFlow :class:`~repro.openflow.switch.Switch` pipeline (compiled engine) or
a SmartSouth template interpreter (reference engine).  Everything observable
is appended to a :class:`~repro.net.trace.Trace`.

Indexed event queue
-------------------

Events are kept in per-time buckets (a heap of distinct times plus a
``time -> [event, ...]`` index) instead of one heap entry per event.  Two
event shapes live in a bucket:

* a callable — an opaque timer (``schedule`` / ``at``);
* a ``(node, packet, in_port)`` tuple — a *typed arrival*, dispatched
  through the network's arrival handler (no closure per packet).

Buckets drain in ascending time, events within a bucket in insertion
order — exactly the ``(time, seq)`` order of a one-entry-per-event heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.core.determinism import seeded_rng
from repro.net.link import Direction, Link
from repro.net.topology import Topology
from repro.net.trace import EventKind, Trace, TraceEvent
from repro.openflow.packet import (
    CONTROLLER_PORT,
    LOCAL_PORT,
    NO_PORT,
    Packet,
    is_physical_port,
)
from repro.openflow.switch import PacketOut

#: A node's packet-processing function.
Handler = Callable[[Packet, int], list[PacketOut]]
#: Controller upcall: (node, packet) for packets sent to CONTROLLER_PORT.
ControllerSink = Callable[[int, Packet], None]
#: Local delivery upcall: (node, packet) for packets sent to LOCAL_PORT.
DeliverySink = Callable[[int, Packet], None]


class SimulationLimitError(RuntimeError):
    """The event budget was exhausted (almost certainly a forwarding loop)."""


class Simulator:
    """A minimal discrete-event loop over an indexed (per-time) queue."""

    def __init__(self) -> None:
        self.now = 0.0
        #: Heap of *distinct* bucket times.
        self._times: list[float] = []
        #: time -> events in insertion order (callables and arrival tuples).
        self._buckets: dict[float, list] = {}
        self._pending = 0
        #: Arrival dispatch: ``fn(node, packet, in_port)``.
        self.arrival_handler: Callable[[int, Packet, int], None] | None = None

    def _push(self, time: float, event) -> None:
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self._pending += 1

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn* at ``now + delay``."""
        if delay < 0:
            raise ValueError("negative delay")
        self._push(self.now + delay, fn)

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at absolute *time* (>= now)."""
        if time < self.now:
            raise ValueError("cannot schedule in the past")
        self._push(time, fn)

    def schedule_arrival(
        self, delay: float, node: int, packet: Packet, in_port: int
    ) -> None:
        """Schedule a typed packet arrival at ``now + delay``.

        Arrivals are stored as plain tuples (no closure per packet) and
        dispatched through :attr:`arrival_handler`.
        """
        if delay < 0:
            raise ValueError("negative delay")
        self._push(self.now + delay, (node, packet, in_port))

    def run(self, until: float | None = None, max_events: int = 2_000_000) -> int:
        """Process events in time order; returns the number processed.

        Every event — timer callback or packet arrival — counts exactly one
        against *max_events*.
        """
        processed = 0
        times = self._times
        buckets = self._buckets
        arrive = self.arrival_handler
        while times:
            time = times[0]
            if until is not None and time > until:
                break
            heapq.heappop(times)
            events = buckets[time]
            self.now = time
            i = 0
            try:
                # Index-based drain: same-time events appended while this
                # bucket is live are picked up in insertion order.
                while i < len(events):
                    event = events[i]
                    i += 1
                    self._pending -= 1
                    processed += 1
                    if type(event) is tuple:
                        arrive(event[0], event[1], event[2])
                    else:
                        event()
                    if processed > max_events:
                        raise SimulationLimitError(
                            f"exceeded {max_events} events (forwarding loop?)"
                        )
            finally:
                if i < len(events):
                    # Interrupted mid-bucket: keep the unprocessed tail so
                    # a caller that catches the error sees a sane queue.
                    del events[:i]
                    heapq.heappush(times, time)
                else:
                    del buckets[time]
        return processed

    @property
    def pending(self) -> int:
        return self._pending


class Network:
    """A topology with runtime link state, handlers, and the event loop.

    ``fast_path`` is the network's one packet-engine choice: every switch
    compiled for this network (engines, multi-service pipelines, controller
    resynchronization and re-adoption) runs on the indexed fast path
    (:mod:`repro.openflow.fastpath`).  It does not change simulator
    semantics — both switch engines are observably identical — only the
    speed of the per-packet pipeline.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        fast_path: bool = False,
    ) -> None:
        self.topology = topology
        self.fast_path = fast_path
        self.links: list[Link] = [Link(edge) for edge in topology.edges()]
        self.sim = Simulator()
        self.sim.arrival_handler = self._arrive
        self.trace = Trace()
        self.rng = seeded_rng(seed)
        self._handlers: dict[int, Handler] = {}
        self._controller_sink: ControllerSink | None = None
        self._delivery_sink: DeliverySink | None = None
        #: Number of pipeline executions so far (one per packet arrival).
        #: This is the model checker's logical clock: scheduling state
        #: changes "after N packet steps" makes replays deterministic in a
        #: way wall-clock scheduling is not.
        self.packet_steps = 0
        self._step_hooks: dict[int, list[Callable[[], None]]] = {}

    # ------------------------------------------------------------------ #
    # Wiring                                                             #
    # ------------------------------------------------------------------ #

    def set_handler(self, node: int, handler: Handler) -> None:
        """Install *node*'s pipeline."""
        self._handlers[node] = handler

    def set_controller_sink(
        self, sink: ControllerSink | None, passive: bool = False
    ) -> None:
        """Install the packet-in sink.

        ``passive`` is accepted for callers written against older versions
        and ignored: every sink is dispatched the same way.
        """
        self._controller_sink = sink

    @property
    def controller_sink(self) -> ControllerSink | None:
        """The current packet-in sink (so a channel being detached can tell
        whether it still owns the sink before releasing it)."""
        return self._controller_sink

    def set_delivery_sink(
        self, sink: DeliverySink | None, passive: bool = False
    ) -> None:
        """Install the local-delivery sink (``passive`` is ignored, as for
        :meth:`set_controller_sink`)."""
        self._delivery_sink = sink

    # ------------------------------------------------------------------ #
    # Link state                                                         #
    # ------------------------------------------------------------------ #

    def link(self, edge_id: int) -> Link:
        return self.links[edge_id]

    def link_between(self, u: int, v: int) -> Link:
        edge = self.topology.find_edge(u, v)
        if edge is None:
            raise ValueError(f"no edge between {u} and {v}")
        return self.links[edge.edge_id]

    def fail_link(self, u: int, v: int) -> Link:
        """Visibly fail the (first) link between *u* and *v*."""
        link = self.link_between(u, v)
        link.up = False
        return link

    def fail_edges(self, edge_ids: Iterable[int]) -> None:
        for edge_id in edge_ids:
            self.links[edge_id].up = False

    def port_live(self, node: int, port: int) -> bool:
        """Is (node, port) attached to an up link?  Blackholes look live."""
        edge = self.topology.port_edge(node, port)
        if edge is None:
            return False
        return self.links[edge.edge_id].up

    def liveness_fn(self, node: int) -> Callable[[int], bool]:
        """A per-node port-liveness oracle, for switch fast-failover."""
        return lambda port: self.port_live(node, port)

    def live_port_pairs(self) -> set[frozenset[tuple[int, int]]]:
        """Up links as {(node, port), (node, port)} pairs (snapshot oracle)."""
        return {
            frozenset(
                (
                    (link.edge.a.node, link.edge.a.port),
                    (link.edge.b.node, link.edge.b.port),
                )
            )
            for link in self.links
            if link.up
        }

    def max_link_delay(self) -> float:
        """Worst-case single-crossing delay (base + jitter), for watchdog
        deadline sizing."""
        return max((link.delay + link.jitter for link in self.links), default=1.0)

    # ------------------------------------------------------------------ #
    # Packet motion                                                      #
    # ------------------------------------------------------------------ #

    def inject(
        self,
        node: int,
        packet: Packet,
        in_port: int = LOCAL_PORT,
        from_controller: bool = False,
    ) -> None:
        """Hand *packet* to *node* as if it arrived on *in_port*.

        ``from_controller=True`` records the paper's out-of-band packet-out.
        """
        if from_controller:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.PACKET_OUT, node, packet.packet_id)
            )
        self.sim.schedule_arrival(0.0, node, packet, in_port)

    def transmit(
        self,
        node: int,
        port: int,
        packet: Packet,
        from_controller: bool = False,
    ) -> None:
        """Emit *packet* from *node* on *port* without pipeline processing.

        Models an OpenFlow packet-out whose action list is ``output:port``
        (used by controller-driven baselines such as LLDP discovery).
        """
        if from_controller:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.PACKET_OUT, node, packet.packet_id)
            )
        self.sim.schedule(0.0, lambda: self._emit(node, port, packet, LOCAL_PORT))

    def at_packet_step(self, step: int, fn: Callable[[], None]) -> None:
        """Run *fn* once the *step*-th packet arrival has been processed.

        Steps count processed arrivals (pipeline executions), so "fail this
        link after 3 steps" means the same thing in the simulator and in the
        model checker regardless of link delays.  A hook registered for a
        step that has already passed fires immediately.
        """
        if step < 0:
            raise ValueError("negative packet step")
        if step <= self.packet_steps:
            fn()
            return
        self._step_hooks.setdefault(step, []).append(fn)

    def _arrive(self, node: int, packet: Packet, in_port: int) -> None:
        handler = self._handlers.get(node)
        if handler is None:
            raise RuntimeError(f"no handler installed at node {node}")
        outputs = handler(packet, in_port)
        if not outputs:
            self.trace.record(
                TraceEvent(
                    self.sim.now, EventKind.PIPELINE_DROP, node, packet.packet_id
                )
            )
        else:
            for out in outputs:
                self._emit(node, out.port, out.packet, in_port)
        # The step hooks fire *after* this arrival's outputs were emitted:
        # a packet already on the wire has crossed its link, matching the
        # checker's atomic-step semantics.
        self.packet_steps += 1
        for fn in self._step_hooks.pop(self.packet_steps, ()):
            fn()

    def _emit(self, node: int, port: int, packet: Packet, in_port: int) -> None:
        if port == CONTROLLER_PORT:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.PACKET_IN, node, packet.packet_id)
            )
            if self._controller_sink is not None:
                self._controller_sink(node, packet)
            return
        if port == LOCAL_PORT:
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.DELIVERED, node, packet.packet_id)
            )
            if self._delivery_sink is not None:
                self._delivery_sink(node, packet)
            return
        if port == NO_PORT or not is_physical_port(port):
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.DEAD_PORT, node, packet.packet_id)
            )
            return
        edge = self.topology.port_edge(node, port)
        if edge is None:
            self.trace.record(
                TraceEvent(
                    self.sim.now, EventKind.DEAD_PORT, node, packet.packet_id,
                    (node, port),
                )
            )
            return
        link = self.links[edge.edge_id]
        far = edge.other(node)
        detail = (node, port, far.node, far.port)
        if not link.up:
            self.trace.record(
                TraceEvent(
                    self.sim.now, EventKind.DEAD_PORT, node, packet.packet_id, detail
                )
            )
            return
        direction = link.direction_from(node)
        if self._drops(link, direction):
            link.dropped[direction] += 1
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.DROP, node, packet.packet_id, detail)
            )
            return
        link.delivered[direction] += 1
        packet.hops += 1
        self.trace.record(
            TraceEvent(self.sim.now, EventKind.HOP, node, packet.packet_id, detail)
        )
        self.sim.schedule_arrival(
            self._crossing_delay(link), far.node, packet, far.port
        )
        # Duplication: the link spawns a second, independent copy (its own
        # packet id, so traces and duplicate-suppression can tell them
        # apart).  The copy crosses with its own delay draw.
        dup = link.dup_prob[direction]
        if dup > 0.0 and self.rng.random() < dup:
            twin = packet.copy()
            link.delivered[direction] += 1
            twin.hops += 1
            self.trace.record(
                TraceEvent(self.sim.now, EventKind.HOP, node, twin.packet_id, detail)
            )
            self.sim.schedule_arrival(
                self._crossing_delay(link), far.node, twin, far.port
            )

    def _crossing_delay(self, link: Link) -> float:
        """One crossing's delay: base + seeded jitter (reordering knob)."""
        if link.jitter <= 0.0:
            return link.delay
        return link.delay + self.rng.random() * link.jitter

    def _drops(self, link: Link, direction: Direction) -> bool:
        probability = link.drop_prob[direction]
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.rng.random() < probability

    # ------------------------------------------------------------------ #
    # Running                                                            #
    # ------------------------------------------------------------------ #

    def run(self, until: float | None = None, max_events: int = 2_000_000) -> int:
        """Drain the event queue (optionally up to simulated time *until*)."""
        return self.sim.run(until=until, max_events=max_events)
