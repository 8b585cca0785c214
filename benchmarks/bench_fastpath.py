"""Experiment F-fastpath: indexed dispatch vs the interpreted entry scan.

Measures packet-step throughput of both switch engines — the interpreted
linear priority scan and the compiled fast path of
:mod:`repro.openflow.fastpath` — over recorded traversal workloads on the
scalability topologies (the mean-degree-6 random graphs of
``bench_scalability``, a dense complete graph, and a star hub whose O(Δ²)
sweep tables are the worst case for linear scan).

The workload is recorded once per topology: a full snapshot traversal runs
on the real simulator and every pipeline arrival ``(node, fields, stack,
in_port)`` is captured by wrapping the installed handlers.  Replaying that
arrival sequence through a fresh switch set — no simulator, no trace —
times nothing but the per-packet pipeline, which is exactly what the fast
path accelerates.

Two gates per workload:

* **Target**: the fast path must reach the headline >=5x speedup on every
  workload.
* **Regression**: the measured speedup must stay within 20% of the
  committed baseline (``benchmarks/baselines/fastpath_baseline.json``).
  Speedup is a same-machine ratio, so the gate is stable across runners of
  different absolute speed.

After an intentional perf change, regenerate the baseline with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fastpath.py \
        --update-fastpath-baseline
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.compiler import compile_service
from repro.core.engine import make_engine
from repro.core.fields import FIELD_SVC
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import complete, erdos_renyi, star
from repro.openflow.packet import LOCAL_PORT, Packet

from conftest import fmt_row

BASELINE_PATH = Path(__file__).parent / "baselines" / "fastpath_baseline.json"
SPEEDUP_TARGET = 5.0
REGRESSION_TOLERANCE = 0.8  # fail if speedup < 80% of the baseline
WIDTHS = (16, 10, 12, 12, 10, 10)

#: (name, topology factory, replay repeats).  Repeats are sized so each
#: engine replays a few thousand arrivals — enough to dominate timer noise
#: without making the bench slow.
WORKLOADS = [
    ("erdos50_deg6", lambda: erdos_renyi(50, 6.0 / 49, seed=5), 8),
    ("complete12", lambda: complete(12), 20),
    ("star16", lambda: star(17), 100),
]


def record_workload(topo):
    """Run one snapshot traversal and capture every pipeline arrival.

    Handlers are wrapped *after* ``engine.install()`` — ``trigger()`` would
    call install itself and rebind the handlers, clobbering the recorders —
    so the trigger packet is injected and run manually.
    """
    net = Network(topo)
    engine = make_engine(net, SnapshotService(), "compiled")
    engine.install()
    arrivals = []
    for node, switch in engine.switches.items():
        def recorder(packet, in_port, node=node, orig=switch.process):
            arrivals.append(
                (node, dict(packet.fields), list(packet.stack), in_port)
            )
            return orig(packet, in_port)

        net.set_handler(node, recorder)
    trigger = Packet(fields={FIELD_SVC: SnapshotService.service_id})
    net.inject(0, trigger, in_port=LOCAL_PORT)
    net.run()
    assert arrivals, "traversal produced no pipeline arrivals"
    return net, arrivals


def _fresh_switches(net, fast: bool):
    switches = {
        node: compile_service(net, node, SnapshotService())
        for node in net.topology.nodes()
    }
    if fast:
        for switch in switches.values():
            switch.enable_fast_path()
            switch.warm_fast_path()  # compile outside the timed region
    return switches


def _outputs_signature(outputs):
    """Engine-comparable view of a PacketOut list (packet ids are global
    allocation order, not semantics, so they are excluded)."""
    return [
        (out.port, sorted(out.packet.fields.items()), list(out.packet.stack))
        for out in outputs
    ]


def replay_throughput(net, arrivals, fast: bool, repeat: int) -> float:
    """Replay the arrival sequence *repeat* times; packets per second."""
    switches = _fresh_switches(net, fast)
    rounds = [
        [
            (node, Packet(fields=dict(fields), stack=list(stack)), in_port)
            for node, fields, stack, in_port in arrivals
        ]
        for _ in range(repeat)
    ]
    start = time.perf_counter()
    for arrivals_round in rounds:
        for node, packet, in_port in arrivals_round:
            switches[node].process(packet, in_port)
    elapsed = time.perf_counter() - start
    return len(arrivals) * repeat / elapsed


def _load_baseline() -> dict:
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name,topo_factory,repeat", WORKLOADS, ids=[w[0] for w in WORKLOADS]
)
def test_fastpath_speedup(benchmark, emit, request, name, topo_factory, repeat):
    net, arrivals = record_workload(topo_factory())

    # Spot-check engine agreement on this workload before timing it (the
    # deep byte-identical checks live in tests/test_fastpath_differential.py).
    slow_switches = _fresh_switches(net, fast=False)
    fast_switches = _fresh_switches(net, fast=True)
    for node, fields, stack, in_port in arrivals:
        slow_out = slow_switches[node].process(
            Packet(fields=dict(fields), stack=list(stack)), in_port
        )
        fast_out = fast_switches[node].process(
            Packet(fields=dict(fields), stack=list(stack)), in_port
        )
        assert _outputs_signature(slow_out) == _outputs_signature(fast_out)

    def measure():
        slow = replay_throughput(net, arrivals, fast=False, repeat=repeat)
        fast = replay_throughput(net, arrivals, fast=True, repeat=repeat)
        return slow, fast

    slow, fast = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = fast / slow

    if name == WORKLOADS[0][0]:
        emit("\n=== F-fastpath: packet-step throughput, interpreted vs compiled ===")
        emit(fmt_row(
            ["workload", "arrivals", "slow pkt/s", "fast pkt/s",
             "speedup", "baseline"], WIDTHS,
        ))
    baseline = _load_baseline()
    base_speedup = baseline["workloads"][name]["speedup"]
    emit(fmt_row(
        [name, len(arrivals), f"{slow:,.0f}", f"{fast:,.0f}",
         f"{speedup:.2f}x", f"{base_speedup:.2f}x"], WIDTHS,
    ))

    if request.config.getoption("--update-fastpath-baseline"):
        baseline["workloads"][name]["speedup"] = round(speedup, 2)
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        return

    # Gate 1: the headline target.
    assert speedup >= SPEEDUP_TARGET, (
        f"{name}: fast path speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET}x target"
    )
    # Gate 2: no >20% regression against the committed baseline.
    floor = base_speedup * REGRESSION_TOLERANCE
    assert speedup >= floor, (
        f"{name}: fast path speedup {speedup:.2f}x regressed more than "
        f"20% below the committed baseline {base_speedup:.2f}x "
        f"(floor {floor:.2f}x) — if intentional, rerun with "
        f"--update-fastpath-baseline"
    )
