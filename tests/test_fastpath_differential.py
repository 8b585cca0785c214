"""Differential conformance: fast-path switches ≡ interpreted switches.

The tentpole acceptance check: both switch engines run the full service
matrix — snapshot / anycast / priocast / blackhole × the chaos topologies ×
seeded fault profiles — and every observable must be *byte-identical*: the
full event trace (hop by hop, packet id by packet id), every report and
delivery, message accounting, and the complete per-entry / per-group /
per-bucket counter state including SELECT round-robin cursors.

The interpreted scan is the reference semantics; any fast-path shortcut
that changes behaviour — a missed counter bump, a cached liveness bit, a
different tie-break — shows up here as a first-divergence diff.
"""

from __future__ import annotations

import json

import pytest

from repro.net.chaos import PROFILES, TOPOLOGIES
from repro.net.scenario import SERVICES, run_scenario

SEEDS = (11, 42)

MATRIX = [
    (service, topology, profile, seed)
    for service in SERVICES
    for topology in sorted(TOPOLOGIES)
    for profile in sorted(PROFILES)
    for seed in SEEDS
]


def _first_divergence(slow: dict, fast: dict) -> str:
    """A readable pointer at the first differing observable."""
    for key in slow:
        if slow[key] == fast[key]:
            continue
        if key == "trace":
            slow_lines = slow[key].splitlines()
            fast_lines = fast[key].splitlines()
            for i, (a, b) in enumerate(zip(slow_lines, fast_lines)):
                if a != b:
                    return f"trace line {i}:\n  interpreted: {a}\n  fast path:   {b}"
            return (
                f"trace length: interpreted={len(slow_lines)} "
                f"fast path={len(fast_lines)}"
            )
        return (
            f"{key}:\n  interpreted: {json.dumps(slow[key])[:500]}\n"
            f"  fast path:   {json.dumps(fast[key])[:500]}"
        )
    return "no divergence"


@pytest.mark.parametrize(
    "service,topology,profile,seed",
    MATRIX,
    ids=[f"{s}-{t}-{p}-s{seed}" for s, t, p, seed in MATRIX],
)
def test_engines_byte_identical(service, topology, profile, seed):
    slow = run_scenario(service, topology, profile, seed, fast_path=False)
    fast = run_scenario(service, topology, profile, seed, fast_path=True)
    assert slow == fast, _first_divergence(slow, fast)
    # Byte-identical, not merely equal: the JSON encodings must match too
    # (golden files are stored as JSON, so this is the format the corpus
    # pins).
    assert json.dumps(slow, sort_keys=True) == json.dumps(fast, sort_keys=True)


def test_matrix_covers_all_services_and_faults():
    """The matrix really spans the ISSUE's grid (guards against silent
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


def test_scenarios_inject_faults():
    """At least some matrix scenarios actually run under faults (the chaos
    draws are seeded; a planner regression could quietly turn the whole
    suite into fair-weather runs)."""
    with_faults = 0
    for service, topology, profile, seed in MATRIX:
        observed = run_scenario(service, topology, profile, seed, fast_path=True)
        if observed["faults"]:
            with_faults += 1
    assert with_faults >= len(MATRIX) // 2
