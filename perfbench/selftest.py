"""Self-test of the benchmark itself.

Two parts, run with ``python3 perfbench/selftest.py`` from the repository
root (exit code 0 = every check passed):

1. A tiny-size run of every workload, untraced and traced, must answer
   correctly and emit every metric ``BENCHMARK.json`` names, with its unit.
2. Every oracle must reject a planted wrong answer: a snapshot missing one
   link, a flipped critical verdict, a delivery outside the group, a
   priocast to a lower-priority member, a storm trigger without its
   report, an off-by-one snapshot message count, and a readopt report that
   did not converge.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracles, run  # noqa: E402
from perfbench.workloads import ChurnTorus6, SeqEr100, StormStar17  # noqa: E402
from repro.analysis.complexity import dfs_message_count  # noqa: E402
from repro.analysis.graph import articulation_points  # noqa: E402
from repro.control.supervisor import ReadoptReport  # noqa: E402
from repro.core.runtime import SmartSouthRuntime  # noqa: E402
from repro.net.simulator import Network  # noqa: E402
from repro.net.topology import erdos_renyi  # noqa: E402


def tiny_workloads(seed: int) -> list:
    return [
        SeqEr100(seed, n=12),
        StormStar17(seed, n=5, burst=20),
        ChurnTorus6(seed, rows=3, cols=3),
    ]


def check_tiny_runs(failures: list[str]) -> None:
    for trace in (0, 1):
        expected = run.metric_units(bool(trace))
        for workload in tiny_workloads(seed=3):
            label = f"tiny-{workload.name}-trace{trace}"
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.measure(workload, 0.3, bool(trace), label)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected:
                failures.append(f"{label}: metrics {sorted(emitted.items())} != "
                                f"BENCHMARK.json {sorted(expected.items())}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    failures.append(f"{label}: {name} is not a number")


def expect(failures: list[str], name: str, good: list[str], planted: list[str]) -> None:
    """The true answer must pass and the planted wrong one must fail."""
    if good:
        failures.append(f"{name}: the correct answer was rejected: {good}")
    if not planted:
        failures.append(f"{name}: the planted wrong answer was accepted")


def check_oracles(failures: list[str]) -> None:
    topology = erdos_renyi(12, 0.3, seed=7)
    network = Network(topology, seed=7)
    runtime = SmartSouthRuntime(network, mode="compiled")
    root = 0

    snap = runtime.snapshot(root)
    missing = set(snap.links)
    missing.pop()
    expect(failures, "snapshot missing one link",
           oracles.check_snapshot(network, root, snap.nodes, snap.links),
           oracles.check_snapshot(network, root, snap.nodes, missing))

    count = snap.result.in_band_messages
    expect(failures, "snapshot message count off by one",
           oracles.check_in_band("snapshot", network, count),
           oracles.check_in_band("snapshot", network, count + 1))

    points = articulation_points(topology)
    node = next(iter(points)) if points else root
    verdict = runtime.critical(node).critical
    expect(failures, "flipped critical verdict",
           oracles.check_critical(network, node, verdict),
           oracles.check_critical(network, node, not verdict))

    groups = {1: {3, 5, 8}}
    delivered = runtime.anycast(root, 1, groups).delivered_at
    outside = next(n for n in topology.nodes() if n not in groups[1])
    expect(failures, "anycast delivery outside the group",
           oracles.check_anycast(groups[1], delivered),
           oracles.check_anycast(groups[1], outside))

    priorities = {1: {3: 10, 5: 200, 8: 40}}
    delivered = runtime.priocast(root, 1, priorities).delivered_at
    expect(failures, "priocast to a lower-priority member",
           oracles.check_priocast(network, root, priorities[1], delivered),
           oracles.check_priocast(network, root, priorities[1], 8))

    storm_network = Network(topology, seed=7)
    storm_runtime = SmartSouthRuntime(storm_network, mode="compiled")
    roots = [0, 4, 4]
    reports = [storm_runtime.snapshot(r).result.reports[-1] for r in roots]
    per_trigger = dfs_message_count(topology.num_nodes, topology.num_edges)
    good = oracles.check_storm(network, roots, reports, per_trigger * len(roots))
    dropped = oracles.check_storm(network, roots, reports[:-1], per_trigger * len(roots))
    expect(failures, "storm trigger without its report",
           [p for found in good for p in found], [p for found in dropped for p in found])

    converged = ReadoptReport(converged=True, rounds=2, reprogrammed_nodes=[4])
    stuck = ReadoptReport(converged=False, rounds=4, drifted_nodes=[4])
    expect(failures, "readopt report that did not converge",
           oracles.check_readopt(converged, 4), oracles.check_readopt(stuck, 4))


def main() -> int:
    failures: list[str] = []
    check_oracles(failures)
    check_tiny_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
