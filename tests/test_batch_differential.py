"""Differential conformance: a scenario rerun in a batch ≡ its first run.

Chaos campaigns, the golden corpus and the double-run gate all run many
scenarios back to back in one process, as one batch of runs.  Their
byte-identity claims hold only if no run leaks state into the next: a
module-level cache, a shared counter, a packet-id allocator or an RNG
stream that one run advances and the next one inherits.  The sanitizer's
``DET``/``RACE`` rules flag such patterns statically; this suite checks
the outcome dynamically.

Every scenario of the full service matrix — snapshot / anycast / priocast
/ blackhole × the chaos topologies × seeded fault profiles — runs twice in
a row in one process.  The second run starts from everything the first
left behind (warm compile caches, advanced allocators, fast-path indexes),
and every observable must be *byte-identical* to the first: the full event
trace, every report and delivery, message accounting, and the complete
per-entry / per-group / per-bucket counter state including SELECT
round-robin cursors.

The high-fan-out storm scenarios (:data:`repro.net.scenario.FANOUT_SCENARIOS`)
inject 8–16 simultaneous triggers, so same-time arrivals at one node
interleave in one bucket of the event queue; they are rerun too.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.net.chaos import PROFILES, TOPOLOGIES
from repro.net.scenario import FANOUT_SCENARIOS, SERVICES, run_scenario

SEEDS = (11, 42)

MATRIX = [
    (service, topology, profile, seed)
    for service in SERVICES
    for topology in sorted(TOPOLOGIES)
    for profile in sorted(PROFILES)
    for seed in SEEDS
]

#: Storm scenarios are rerun as well — the runs in which several packets
#: share one event-queue bucket at one node.
STORM_MATRIX = list(FANOUT_SCENARIOS)

#: A small interpreted-pipeline slice: run-to-run reproducibility is a
#: property of the whole stack, not of the fast path, so the interpreted
#: per-entry scan must rerun identically as well.
INTERPRETED_MATRIX = [
    ("snapshot-storm", "torus3x3", "lossy", 11),
    ("priocast-storm", "torus3x3", "lossy", 42),
    ("blackhole", "complete5", "blackhole", 11),
]


def _first_divergence(first: dict, rerun: dict) -> str:
    """A readable pointer at the first differing observable."""
    for key in first:
        if first[key] == rerun[key]:
            continue
        if key == "trace":
            first_lines = first[key].splitlines()
            rerun_lines = rerun[key].splitlines()
            for i, (a, b) in enumerate(zip(first_lines, rerun_lines)):
                if a != b:
                    return f"trace line {i}:\n  first: {a}\n  rerun: {b}"
            return (
                f"trace length: first={len(first_lines)} "
                f"rerun={len(rerun_lines)}"
            )
        return (
            f"{key}:\n  first: {json.dumps(first[key])[:500]}\n"
            f"  rerun: {json.dumps(rerun[key])[:500]}"
        )
    return "no divergence"


def _assert_rerun_identical(service, topology, profile, seed, fast_path):
    first = run_scenario(service, topology, profile, seed, fast_path=fast_path)
    rerun = run_scenario(service, topology, profile, seed, fast_path=fast_path)
    assert first == rerun, _first_divergence(first, rerun)
    # Byte-identical, not merely equal: the JSON encodings must match too
    # (the golden corpus pins this format).
    assert json.dumps(first, sort_keys=True) == json.dumps(
        rerun, sort_keys=True
    )


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in MATRIX],
)
def test_batch_byte_identical(service, topology, profile, seed):
    _assert_rerun_identical(service, topology, profile, seed, fast_path=True)


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    STORM_MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in STORM_MATRIX],
)
def test_storm_batch_byte_identical(service, topology, profile, seed):
    _assert_rerun_identical(service, topology, profile, seed, fast_path=True)


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    INTERPRETED_MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in INTERPRETED_MATRIX],
)
def test_interpreted_batch_byte_identical(service, topology, profile, seed):
    _assert_rerun_identical(service, topology, profile, seed, fast_path=False)


def test_matrix_covers_all_services_and_faults():
    """The matrix really spans the full grid (guards against silent
    shrinkage when chaos profiles or topologies are renamed)."""
    services = {m[0] for m in MATRIX}
    topologies = {m[1] for m in MATRIX}
    profiles = {m[2] for m in MATRIX}
    assert services == {"snapshot", "anycast", "priocast", "blackhole"}
    assert topologies == set(TOPOLOGIES)
    assert profiles == set(PROFILES)
    assert len(MATRIX) == len(services) * len(topologies) * len(profiles) * len(
        SEEDS
    )


def test_storm_matrix_covers_fanout_services():
    """Every storm service variant appears, and storms really fan out:
    each injects at least 8 simultaneous triggers (the roots list in the
    aggregated result) and drains them in one run."""
    services = {m[0] for m in STORM_MATRIX}
    assert services == {"snapshot-storm", "anycast-storm", "priocast-storm"}
    for service, topology, profile, seed in STORM_MATRIX:
        observed = run_scenario(service, topology, profile, seed, fast_path=True)
        assert observed["error"] is None
        (aggregate,) = observed["results"]
        assert len(aggregate["roots"]) >= 8


def test_storms_produce_multi_packet_batches():
    """The point of the storm corpus: several packets must reach one node
    at one simulated instant, so they share an event-queue bucket and
    their order within it is exercised — or the storm reruns are no
    stronger than the single-trigger ones."""
    from repro.core.determinism import seeded_rng
    from repro.core.engine import make_engine
    from repro.net.chaos import _plan_faults
    from repro.net.scenario import _PLAN_SALT, _build_storm
    from repro.net.simulator import Network
    from repro.openflow.packet import reset_packet_ids

    service_name, topology_name, profile_name, seed = STORM_MATRIX[0]
    reset_packet_ids()
    topology = TOPOLOGIES[topology_name]()
    network = Network(topology, seed=seed, fast_path=True)
    plan_rng = seeded_rng(seed ^ _PLAN_SALT)
    root = plan_rng.randrange(topology.num_nodes)
    _plan_faults(
        network, PROFILES[profile_name], service_name, root, plan_rng, None
    )
    service, triggers = _build_storm(service_name, topology, root, plan_rng)
    engine = make_engine(network, service, "compiled")

    arrivals = Counter()
    original = network.sim.arrival_handler

    def spy(node, packet, in_port):
        arrivals[(network.sim.now, node)] += 1
        return original(node, packet, in_port)

    network.sim.arrival_handler = spy
    for trigger_root, fields, from_controller in triggers:
        engine.trigger(
            trigger_root,
            fields=dict(fields),
            from_controller=from_controller,
            run=False,
        )
    network.run()
    assert arrivals, "the storm never reached the arrival handler"
    assert max(arrivals.values()) >= 2, (
        f"storm produced only single-packet instants: "
        f"{sorted(arrivals.items())[:20]}"
    )
