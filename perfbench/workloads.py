"""The three seeded workloads.

Each workload generates every input from its seed (topology, roots,
groups, priorities, lossy links and crash victims), builds its runtime
through the public API only, runs a closed or open timed phase, and checks
every answer with :mod:`perfbench.oracles` after the timed region.

No workload passes a ``fast_path`` or ``batch`` argument: they measure the
engine the CLI and the examples use, ``mode="compiled"`` with the network
defaults.
"""

from __future__ import annotations

import gc
import itertools
import resource
from dataclasses import dataclass, field
from time import perf_counter

from perfbench import hostspeed, oracles
from repro.analysis.complexity import traversal_hop_bound
from repro.control.channel import ControlChannel
from repro.control.supervisor import SupervisedRuntime, check_epoch_ledger
from repro.core.determinism import derive_rng
from repro.core.runtime import SmartSouthRuntime
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import erdos_renyi, star, torus

#: Anycast/priocast groups per workload (ids 1..GROUPS, three members
#: each); every request addresses a seeded one, so one run averages over
#: group placements instead of depending on a single group.
GROUPS = 8


@dataclass
class Op:
    """One checked operation: a trigger, a storm trigger or a readopt."""

    kind: str
    root: int
    outcome: object
    ms: float
    #: Per-op in-band count where the engine reports one, else None.
    in_band: int | None = None
    #: Addressed group (anycast/priocast).
    gid: int = 0


@dataclass
class Session:
    """A built runtime plus the operations run on it so far."""

    network: Network
    runtime: object
    ops: list[Op] = field(default_factory=list)
    engine: object = None
    channel: ControlChannel | None = None


@dataclass
class Window:
    """One slice of a timed phase, timed between two host speed probes: a
    storm burst's drain, or ``window`` operations of a closed loop."""

    #: Host seconds the slice took.
    seconds: float
    #: Host ms per answered trigger in the slice.
    latencies: list[float]
    #: Reference seconds per host second, from the host speed probes
    #: around the slice (see :mod:`perfbench.hostspeed`).
    scale: float

    @property
    def reference_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Phase:
    """What one timed phase did."""

    ops: list[Op]
    #: Operations (storm: bursts) run; ``timed(count=...)`` replays them.
    count: int
    #: Host seconds the measured work took.
    elapsed: float
    #: Host seconds of the whole phase, including set-ups inside it (and
    #: excluding the checks and the collection a storm runs between
    #: bursts).
    wall: float
    triggers: int
    #: The measured work cut into slices, in run order.
    windows: list[Window]
    #: Host ms per readopt call.
    repairs: list[float]
    #: In-band messages per trigger over the fixed, seeded prefix.
    in_band_per_trigger: float
    #: Peak resident MB of the process at the end of that prefix: a fixed
    #: amount of work, so a faster engine that fits more operations into
    #: the run does not read as using more memory.
    peak_rss_mb: float
    #: Workload facts for the per-layer report, read from public results.
    layer_counts: dict[str, float] = field(default_factory=dict)
    #: Set-ups run inside the phase (storm bursts after the first).
    setups: list[float] = field(default_factory=list)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Lazy:
    """A seeded sequence extended on demand, so every run (and the untraced
    replay of a traced run) sees the same inputs at the same index."""

    def __init__(self, draw) -> None:
        self._draw = draw
        self._items: list = []

    def __getitem__(self, index: int):
        while len(self._items) <= index:
            self._items.append(self._draw())
        return self._items[index]


class ClosedLoop:
    """One client; the next operation starts when the previous returns."""

    loop = "closed"
    setup_repeats = 3
    #: Operations in one cycle of the schedule.  Timed phases end on a
    #: cycle boundary, so every run has the same mix of operations (the
    #: median of a mix with an odd share of one service jumps between
    #: services).
    cycle = 1
    #: Timed cycles whose in-band messages define the per-trigger figure;
    #: every run completes at least these.
    prefix_cycles = 1
    #: Operations run cold in set-up (they come first in the schedule).
    cold_ops = 0
    #: Operations in one window of the timed phase: a divisor or a
    #: multiple of ``cycle``.  Shorter windows follow the host's speed
    #: more closely; each costs one host speed probe.
    window = 1

    def schedule(self, index: int) -> tuple[str, int, int]:
        """(kind, root or victim, gid) of operation *index*."""
        raise NotImplementedError

    def call(self, session: Session, kind: str, root: int, gid: int):
        raise NotImplementedError

    def in_band_of(self, kind: str, outcome) -> int | None:
        return None

    def _run_op(self, session: Session, tracer, index: int) -> Op:
        kind, root, gid = self.schedule(index)
        tracer.begin_op(index)
        start = perf_counter()
        outcome = self.call(session, kind, root, gid)
        ms = (perf_counter() - start) * 1e3
        tracer.end_op()
        return Op(kind, root, outcome, ms, self.in_band_of(kind, outcome), gid)

    def setup(self, tracer) -> Session:
        session = self.build(tracer)
        for index in range(self.cold_ops):
            session.ops.append(self._run_op(session, tracer, index))
        return session

    def build(self, tracer) -> Session:
        raise NotImplementedError

    def timed(
        self, session: Session, tracer, seconds: float | None = None,
        count: int | None = None,
    ) -> Phase:
        """Run whole windows until they have taken *seconds* of reference
        time (and the prefix is done), or exactly *count* operations.  The
        host speed is probed around every window, outside the timing.

        The budget is in reference time because an operation's cost here
        grows with the work done before it (the trace grows): on a host
        budget, a fast spell of the host would buy a longer run and with it
        slower operations."""
        trace = session.network.trace
        in_band_start = trace.in_band_messages
        prefix_in_band = 0
        prefix_triggers = 0
        prefix_rss = 0.0
        ops: list[Op] = []
        windows: list[Window] = []
        prefix_ops = self.prefix_cycles * self.cycle
        stop_ops = max(self.window, self.cycle)
        counts_before = self.layer_counts(session, [])
        before = hostspeed.probe()
        start = window_start = perf_counter()
        for index in itertools.count(self.cold_ops):
            ops.append(self._run_op(session, tracer, index))
            done = len(ops)
            if done % self.window == 0:
                now = perf_counter()
                after = hostspeed.probe()
                windows.append(Window(now - window_start, [
                    op.ms for op in ops[-self.window:] if op.kind != "readopt"
                ], hostspeed.scale(before, after)))
                before = after
                window_start = perf_counter()
                start += window_start - now
            if done == prefix_ops:
                # Reading the counter may cost time that grows with the
                # trace; it is not the workload's, so the clock skips it.
                paused = perf_counter()
                prefix_in_band = trace.in_band_messages - in_band_start
                prefix_triggers = sum(op.kind != "readopt" for op in ops)
                prefix_rss = peak_rss_mb()
                skipped = perf_counter() - paused
                start += skipped
                window_start += skipped
            if count is not None:
                if done >= count:
                    break
            elif (
                done >= prefix_ops
                and done % stop_ops == 0
                and sum(w.reference_s for w in windows) >= seconds
            ):
                break
        elapsed = perf_counter() - start
        session.ops.extend(ops)
        triggers = [op for op in ops if op.kind != "readopt"]
        counts = self.layer_counts(session, ops)
        for key, value in counts_before.items():
            counts[key] -= value
        return Phase(
            ops=ops,
            count=len(ops),
            elapsed=elapsed,
            wall=elapsed,
            triggers=len(triggers),
            windows=windows,
            repairs=[op.ms for op in ops if op.kind == "readopt"],
            in_band_per_trigger=prefix_in_band / max(prefix_triggers, 1),
            peak_rss_mb=prefix_rss,
            layer_counts=counts,
        )

    def layer_counts(self, session: Session, ops: list[Op]) -> dict[str, float]:
        return {}


class SeqEr100(ClosedLoop):
    """Closed loop over the four services on a warm ER(100) runtime."""

    name = "seq-er100"
    services = ("snapshot", "critical", "anycast", "priocast")
    cold_ops = cycle = 4
    prefix_cycles = 10

    #: One fixed ER instance (the one the ROADMAP's timings use).  The run
    #: seed draws the requests on it; drawing a new graph per seed made
    #: ten runs on a 2-vCPU VM differ by 11-26 % in every metric, from edge
    #: count alone.
    topology_seed = 5

    mean_degree = 6.0

    def __init__(self, seed: int, n: int = 100) -> None:
        self.topology = erdos_renyi(n, self.mean_degree / (n - 1), seed=self.topology_seed)
        self.seed = seed
        rng = derive_rng(seed, self.name)
        self.groups: dict[int, set[int]] = {}
        self.priorities: dict[int, dict[int, int]] = {}
        for gid in range(1, GROUPS + 1):
            members = rng.sample(range(n), 3)
            self.groups[gid] = set(members)
            self.priorities[gid] = dict(zip(members, rng.sample(range(1, 256), 3)))
        self.requests = _Lazy(lambda: (rng.randrange(n), rng.randrange(1, GROUPS + 1)))

    def schedule(self, index: int) -> tuple[str, int, int]:
        return (self.services[index % len(self.services)], *self.requests[index])

    def build(self, tracer) -> Session:
        network = Network(self.topology, seed=self.seed)
        tracer.attach_network(network)
        runtime = SmartSouthRuntime(network, mode="compiled")
        tracer.wrap_methods(runtime, "engine", self.services)
        return Session(network, runtime)

    def call(self, session: Session, kind: str, root: int, gid: int):
        runtime = session.runtime
        if kind == "snapshot":
            return runtime.snapshot(root)
        if kind == "critical":
            return runtime.critical(root)
        if kind == "anycast":
            return runtime.anycast(root, gid, self.groups)
        return runtime.priocast(root, gid, self.priorities)

    def in_band_of(self, kind: str, outcome) -> int:
        result = outcome.result if kind in ("snapshot", "critical") else outcome
        return result.in_band_messages

    def check(self, session: Session) -> list[list[str]]:
        network = session.network
        problems = []
        for op in session.ops:
            if op.kind == "snapshot":
                found = oracles.check_snapshot(
                    network, op.root, op.outcome.nodes, op.outcome.links
                )
            elif op.kind == "critical":
                found = oracles.check_critical(network, op.root, op.outcome.critical)
            elif op.kind == "anycast":
                found = oracles.check_anycast(
                    self.groups[op.gid], op.outcome.delivered_at
                )
            else:
                found = oracles.check_priocast(
                    network, op.root, self.priorities[op.gid], op.outcome.delivered_at
                )
            found += oracles.check_in_band(op.kind, network, op.in_band)
            problems.append(found)
        return problems


class ChurnTorus6(ClosedLoop):
    """Closed loop of supervised queries with periodic switch repair."""

    name = "churn-torus6"
    services = ("snapshot", "critical", "anycast")
    setup_repeats = 9
    cold_ops = 3
    repair_every = 5
    #: Five rounds of three queries, then one crash, reboot and readopt.
    cycle = repair_every * len(services) + 1
    prefix_cycles = 20
    #: Two cycles per window (30 triggers and 2 readopts, about a second):
    #: an operation takes 1-30 ms, a probe about 10 ms.
    window = 2 * cycle
    lossy_links = 3
    loss = 0.05

    def __init__(self, seed: int, rows: int = 6, cols: int = 6) -> None:
        self.topology = torus(rows, cols)
        self.seed = seed
        n = self.topology.num_nodes
        rng = derive_rng(seed, self.name)
        # The lossy links move to a new seeded placement after every
        # readopt, so one run averages over placements instead of depending
        # on where a single placement cuts the DFS tree.
        loss_rng = derive_rng(seed, self.name, "loss")
        edges = range(self.topology.num_edges)
        self.lossy = _Lazy(lambda: sorted(loss_rng.sample(edges, self.lossy_links)))
        self.groups = {
            gid: set(rng.sample(range(n), 3)) for gid in range(1, GROUPS + 1)
        }

        def draw_round() -> list[tuple[str, int, int]]:
            return [
                (kind, rng.randrange(n), rng.randrange(1, GROUPS + 1))
                for kind in self.services
            ]

        rounds = _Lazy(draw_round)
        victims = _Lazy(lambda: rng.randrange(n))

        def flatten():
            # Round 0 is set-up; every repair_every-th timed round ends
            # with a crash + reboot of a seeded switch and a readopt (its
            # third field is the repair cycle number).
            for number in itertools.count():
                yield from rounds[number]
                if number and number % self.repair_every == 0:
                    cycle = number // self.repair_every
                    yield ("readopt", victims[cycle], cycle)

        flat = flatten()
        self._schedule = _Lazy(lambda: next(flat))

    def schedule(self, index: int) -> tuple[str, int, int]:
        return self._schedule[index]

    def build(self, tracer) -> Session:
        network = Network(self.topology, seed=self.seed)
        tracer.attach_network(network)
        channel = ControlChannel(network)
        runtime = SupervisedRuntime(network, mode="compiled", channel=channel)
        tracer.wrap_methods(runtime, "supervisor", self.services)
        tracer.wrap_methods(runtime, "readopt", ("readopt",))
        return Session(network, runtime, channel=channel)

    def setup(self, tracer) -> Session:
        # The cold queries run loss-free: set-up measures compiling and
        # installing, not retries, which the timed phase measures.
        session = super().setup(tracer)
        for edge_id in self.lossy[0]:
            session.network.links[edge_id].set_loss(self.loss)
        return session

    def call(self, session: Session, kind: str, root: int, gid: int):
        runtime = session.runtime
        if kind == "snapshot":
            return runtime.snapshot(root)
        if kind == "critical":
            return runtime.critical(root)
        if kind == "anycast":
            return runtime.anycast(root, gid, self.groups)
        for switch in runtime.switches_at(root):
            switch.crash()
            switch.reboot()
        report = runtime.readopt()
        links = session.network.links
        for edge_id in self.lossy[gid - 1]:
            links[edge_id].set_loss(0.0)
        for edge_id in self.lossy[gid]:
            links[edge_id].set_loss(self.loss)
        return report

    def check(self, session: Session) -> list[list[str]]:
        network = session.network
        problems = []
        budget = 0
        n, e = network.topology.num_nodes, network.topology.num_edges
        for op in session.ops:
            if op.kind == "readopt":
                problems.append(oracles.check_readopt(op.outcome, op.root))
                continue
            if op.kind == "snapshot":
                found = oracles.check_supervised_snapshot(network, op.root, op.outcome)
            elif op.kind == "critical":
                found = oracles.check_supervised_critical(network, op.root, op.outcome)
            else:
                found = oracles.check_supervised_anycast(self.groups[op.gid], op.outcome)
            found += check_epoch_ledger(op.outcome.supervision)
            budget += op.outcome.supervision.attempts_used * traversal_hop_bound(
                op.kind, n, e
            )
            problems.append(found)
        # Supervised answers carry no per-call message count, and stale
        # attempts may finish during a later call, so the Table 2 bound is
        # audited over the whole session: every attempt's packet lineage
        # stays within its service's hop bound.
        in_band = network.trace.in_band_messages
        if in_band > budget:
            issue = f"in-band total {in_band} exceeds the per-attempt bound sum {budget}"
            for op, found in zip(session.ops, problems):
                if op.kind != "readopt":
                    found.append(issue)
        return problems

    def layer_counts(self, session: Session, ops: list[Op]) -> dict[str, float]:
        supervised = [op.outcome.supervision for op in ops if op.kind != "readopt"]
        repairs = [op.outcome for op in ops if op.kind == "readopt"]
        return {
            "supervisor.attempts": sum(s.attempts_used for s in supervised),
            "supervisor.retries": sum(s.attempts_used - 1 for s in supervised),
            "supervisor.degraded": sum(s.degraded for s in supervised),
            "readopt.rounds": sum(r.rounds for r in repairs),
            "readopt.reprogrammed": sum(len(r.reprogrammed_nodes) for r in repairs),
            "channel.packet_outs_lost": session.channel.packet_outs_lost,
        }


class StormStar17:
    """Open-loop bursts: two hundred same-time snapshot triggers per drain.

    A burst is one window of the phase.  A thousand-trigger burst drains in
    about four seconds, long enough for the host's speed to change inside
    it unseen by the probes around it; two hundred drain in under a second.
    """

    name = "storm-star17"
    loop = "open"
    setup_repeats = 21

    def __init__(self, seed: int, n: int = 17, burst: int = 200) -> None:
        self.topology = star(n)
        self.seed = seed
        rng = derive_rng(seed, self.name)
        self.first_root = rng.randrange(n)
        self.bursts = _Lazy(lambda: [rng.randrange(n) for _ in range(burst)])

    def setup(self, tracer) -> Session:
        network = Network(self.topology, seed=self.seed)
        tracer.attach_network(network)
        runtime = SmartSouthRuntime(network, mode="compiled")
        engine = runtime.engine_for(SnapshotService())
        tracer.wrap_methods(engine, "engine", ("trigger",))
        session = Session(network, runtime, engine=engine)
        tracer.begin_op(0)
        start = perf_counter()
        result = engine.trigger(self.first_root)
        ms = (perf_counter() - start) * 1e3
        tracer.end_op()
        session.ops.append(
            Op("snapshot", self.first_root, result, ms, result.in_band_messages)
        )
        return session

    def timed(
        self, session: Session, tracer, seconds: float | None = None,
        count: int | None = None,
    ) -> Phase:
        """Drain bursts until they have taken *seconds* of reference time,
        or exactly *count* bursts.  The host speed is probed around every
        burst and every set-up, outside the timing.

        Each burst is injected at one simulated instant and drained by one
        ``Network.run()``; a trigger's latency runs from the start of its
        burst to the host time its report reaches the controller.  Every
        burst after the first runs on a freshly set-up warm runtime, so
        each burst starts from the same state and the figures do not depend
        on how many bursts fit in the run; those set-ups are timed as
        set-ups, not as burst time.  Each burst is checked as soon as it
        has drained, outside its timing, and its runtime is then dropped,
        so memory does not grow with the number of bursts.  The checked
        operations stay in ``session.ops`` as ``checked`` ops.
        """
        ops: list[Op] = []
        windows: list[Window] = []
        setups: list[float] = []
        elapsed = 0.0
        in_band_per_trigger = 0.0
        rss = 0.0
        checking = 0.0
        current = session
        start = perf_counter()
        last = hostspeed.probe()
        checking += perf_counter() - start
        for burst in itertools.count():
            if burst:
                began = perf_counter()
                current = self.setup(tracer)
                took = perf_counter() - began
                began = perf_counter()
                after = hostspeed.probe()
                setups.append(took * hostspeed.scale(last, after))
                last = after
                ops += [Op("checked", 0, found, 0.0) for found in self.check(current)]
                checking += perf_counter() - began
            network, engine = current.network, current.engine
            roots = self.bursts[burst]
            reports: list = []
            stamps: list[float] = []

            def sink(node, packet, reports=reports, stamps=stamps) -> None:
                stamps.append(perf_counter())
                reports.append((node, packet))

            began = perf_counter()
            in_band_start = network.trace.in_band_messages
            checking += perf_counter() - began
            first = 1 + burst * len(roots)
            began = perf_counter()
            for offset, root in enumerate(roots):
                tracer.begin_op(first + offset)
                engine.trigger(root, run=False)
                tracer.end_op()
            network.set_controller_sink(sink, passive=True)
            tracer.begin_op(-1 - burst)
            network.run()
            tracer.end_op()
            took = perf_counter() - began
            elapsed += took
            latencies = [(stamp - began) * 1e3 for stamp in stamps]
            began = perf_counter()
            after = hostspeed.probe()
            windows.append(Window(took, latencies, hostspeed.scale(last, after)))
            last = after
            in_band = network.trace.in_band_messages - in_band_start
            if burst == 0:
                in_band_per_trigger = in_band / len(roots)
                rss = peak_rss_mb()
            ops += [
                Op("checked", root, found, 0.0)
                for root, found in zip(
                    roots, oracles.check_storm(network, roots, reports, in_band)
                )
            ]
            del current, network, engine, reports
            # Free the drained runtime now, so its cycles are not collected
            # inside the next burst's timing.
            gc.collect()
            checking += perf_counter() - began
            if count is not None:
                if burst + 1 >= count:
                    break
            elif sum(w.reference_s for w in windows) >= seconds:
                break
        session.ops.extend(ops)
        return Phase(
            ops=ops,
            count=burst + 1,
            elapsed=elapsed,
            wall=perf_counter() - start - checking,
            triggers=sum(len(window.latencies) for window in windows),
            windows=windows,
            repairs=[],
            in_band_per_trigger=in_band_per_trigger,
            peak_rss_mb=rss,
            setups=setups,
        )

    def check(self, session: Session) -> list[list[str]]:
        problems = []
        for op in session.ops:
            if op.kind == "checked":
                problems.append(op.outcome)
                continue
            result = op.outcome
            found = oracles.check_snapshot_report(
                session.network, op.root, *result.reports[-1]
            ) if result.reports else [f"snapshot@{op.root}: no report"]
            found += oracles.check_in_band("snapshot", session.network, op.in_band)
            problems.append(found)
        return problems


WORKLOADS = {cls.name: cls for cls in (SeqEr100, StormStar17, ChurnTorus6)}
