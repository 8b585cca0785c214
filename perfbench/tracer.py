"""Outside-in per-layer tracing.

The traced run times each layer by wrapping the public functions the
benchmark calls into, or that one layer calls into the next, on the
objects of the run (or, for the two module- and class-level entry points,
for the duration of the run).  Nothing under ``src/`` changes.  Each
wrapper records a span ``(name, start, end, parent, trigger)`` in memory;
the spans are written out when the run ends, and a layer's self time is
its spans' durations minus the part their child spans cover.

Span names, one per layer:

==========  ===============================================================
bench       one benchmark operation (the root span of a trigger id)
engine      a ``SmartSouthRuntime`` call, or ``engine.trigger`` in a storm
supervisor  a ``SupervisedRuntime`` query
readopt     ``SupervisedRuntime.readopt``
compiler    ``repro.core.compiler.compile_service``
fastpath    ``Switch.warm_fast_path``
simulator   ``net.sim.run`` (on the network instance)
switch      ``Switch.process`` (on each compiled switch instance)
trace       ``net.trace.record`` (on the network instance)
sink        a controller or local-delivery upcall
==========  ===============================================================
"""

from __future__ import annotations

import gc
from pathlib import Path
from time import perf_counter_ns

import repro.core.compiler as compiler_module
from repro.openflow.switch import Switch

LAYERS = (
    "bench", "engine", "supervisor", "readopt", "compiler", "fastpath",
    "simulator", "switch", "trace", "sink",
)


class NullTracer:
    """The untraced run: every hook is a no-op."""

    def attach_network(self, network) -> None:
        pass

    def wrap_methods(self, obj, layer: str, names) -> None:
        pass

    def begin_op(self, op_id: int) -> None:
        pass

    def end_op(self) -> None:
        pass


class _TimedSink:
    """A controller/delivery upcall wrapped in a ``sink`` span.

    Compares equal to the sink it wraps, so code that asks whether it still
    owns the network's sink (``ControlChannel.set_packet_in_handler``) gets
    the same answer as without tracing.
    """

    __slots__ = ("inner", "tracer")

    def __init__(self, inner, tracer: "Tracer") -> None:
        self.inner = inner
        self.tracer = tracer

    def __call__(self, node, packet) -> None:
        index = self.tracer.open("sink")
        try:
            self.inner(node, packet)
        finally:
            self.tracer.close(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, _TimedSink):
            other = other.inner
        return self.inner == other

    def __hash__(self) -> int:
        return hash(self.inner)


class Tracer:
    """Span recorder plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.triggers: list[int] = []
        self._stack: list[int] = [-1]
        self.trigger = -1
        self.counts = {
            "compiler.calls": 0,
            "compiler.rules": 0,
            "compiler.groups": 0,
            "switch.packets": 0,
            "switch.drops": 0,
            "packet.fields": 0,
            "simulator.events": 0,
            "simulator.pending_peak": 0,
            "trace.events": 0,
            "gc.gen2_collections": 0,
        }
        self.gc_pause_ns = 0
        self._gc_started = 0
        self._restore: list = []

    # -- spans ----------------------------------------------------------- #

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.triggers.append(self.trigger)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self.trigger = op_id
        self.open("bench")

    def end_op(self) -> None:
        self.close(self._stack[-1])
        self.trigger = -1

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installing the wrappers ----------------------------------------- #

    def start(self) -> None:
        """Wrap the module- and class-level entry points and start the GC
        probe; :meth:`stop` undoes both."""
        original_compile = compiler_module.compile_service
        original_warm = Switch.warm_fast_path
        counts = self.counts
        tracer = self

        def compile_service(network, node, service, *args, **kwargs):
            index = tracer.open("compiler")
            try:
                switch = original_compile(network, node, service, *args, **kwargs)
            finally:
                tracer.close(index)
            counts["compiler.calls"] += 1
            counts["compiler.rules"] += switch.rule_count()
            counts["compiler.groups"] += switch.group_count()
            tracer.instrument_switch(switch, network.sim)
            return switch

        compiler_module.compile_service = compile_service
        Switch.warm_fast_path = self._wrap("fastpath", original_warm)
        gc.callbacks.append(self._on_gc)
        self._restore = [
            lambda: setattr(compiler_module, "compile_service", original_compile),
            lambda: setattr(Switch, "warm_fast_path", original_warm),
            lambda: gc.callbacks.remove(self._on_gc),
        ]

    def stop(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore = []

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter_ns()
            return
        self.gc_pause_ns += perf_counter_ns() - self._gc_started
        if info.get("generation") == 2:
            self.counts["gc.gen2_collections"] += 1

    def instrument_switch(self, switch: Switch, sim) -> None:
        """Wrap one switch's ``process`` on the instance.  The network binds
        ``switch.process`` afresh on every trigger, so the wrapper is what
        the event loop calls."""
        process = switch.process
        counts = self.counts
        tracer = self

        def traced_process(packet, in_port):
            counts["switch.packets"] += 1
            counts["packet.fields"] += len(packet.fields)
            pending = sim.pending
            if pending > counts["simulator.pending_peak"]:
                counts["simulator.pending_peak"] = pending
            index = tracer.open("switch")
            try:
                outputs = process(packet, in_port)
            finally:
                tracer.close(index)
            if not outputs:
                counts["switch.drops"] += 1
            return outputs

        switch.process = traced_process

    def attach_network(self, network) -> None:
        """Wrap the event loop, trace recording and sink installation of
        one network, on the instance."""
        counts = self.counts
        tracer = self
        sim = network.sim
        run = sim.run
        record = network.trace.record
        set_controller_sink = network.set_controller_sink
        set_delivery_sink = network.set_delivery_sink

        def traced_run(*args, **kwargs):
            if sim.pending > counts["simulator.pending_peak"]:
                counts["simulator.pending_peak"] = sim.pending
            index = tracer.open("simulator")
            try:
                processed = run(*args, **kwargs)
            finally:
                tracer.close(index)
            counts["simulator.events"] += processed
            return processed

        def traced_record(event) -> None:
            index = tracer.open("trace")
            record(event)
            tracer.close(index)
            counts["trace.events"] += 1

        def wrap_sink(setter):
            def traced_setter(sink, passive: bool = False) -> None:
                if sink is not None and not isinstance(sink, _TimedSink):
                    sink = _TimedSink(sink, tracer)
                setter(sink, passive=passive)

            return traced_setter

        sim.run = traced_run
        network.trace.record = traced_record
        network.set_controller_sink = wrap_sink(set_controller_sink)
        network.set_delivery_sink = wrap_sink(set_delivery_sink)

    def wrap_methods(self, obj, layer: str, names) -> None:
        """Put each named method of *obj* (on the instance) in a *layer* span."""
        for name in names:
            setattr(obj, name, self._wrap(layer, getattr(obj, name)))

    # -- reading the spans ----------------------------------------------- #

    def mark(self) -> int:
        """Span index where the next phase starts."""
        return len(self.names)

    def times(self, since: int = 0) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds, inclusive seconds) per layer over spans from *since*."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        covered = [0] * len(names)
        for i in range(since, len(names)):
            parent = parents[i]
            if parent >= since:
                covered[parent] += ends[i] - starts[i]
        own = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0)
        for i in range(since, len(names)):
            duration = ends[i] - starts[i]
            own[names[i]] += duration - covered[i]
            total[names[i]] += duration
        return (
            {k: v / 1e9 for k, v in own.items()},
            {k: v / 1e9 for k, v in total.items()},
        )

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start and end in ns from the
        first span, parent index (-1 = none), trigger id (-1 = none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.starts[0] if self.starts else 0
        with path.open("w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\ttrigger\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{name}\t{self.starts[i] - base}\t{self.ends[i] - base}\t"
                    f"{self.parents[i]}\t{self.triggers[i]}\n"
                )
