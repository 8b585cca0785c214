"""Answer oracles: each returns a list of problems (empty = the answer holds).

Every oracle derives the expected answer independently of the engine under
test: graph algorithms from :mod:`repro.analysis.graph`, message bounds from
:mod:`repro.analysis.complexity` (the paper's Table 2), and live link state
from :meth:`repro.net.simulator.Network.live_port_pairs`.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.complexity import dfs_message_count, table2_row
from repro.analysis.graph import articulation_points
from repro.core.services.snapshot import decode_snapshot
from repro.net.chaos import readopt_problems
from repro.net.simulator import Network


def component_of(network: Network, root: int) -> set[int]:
    """Nodes reachable from *root* over up links."""
    adjacency: dict[int, list[int]] = {n: [] for n in network.topology.nodes()}
    for link in network.links:
        if link.up:
            a, b = link.edge.a.node, link.edge.b.node
            adjacency[a].append(b)
            adjacency[b].append(a)
    seen = {root}
    stack = [root]
    while stack:
        for nbr in adjacency[stack.pop()]:
            if nbr not in seen:
                seen.add(nbr)
                stack.append(nbr)
    return seen


def live_links_of(network: Network, component: set[int]) -> set:
    """The snapshot oracle: up port pairs inside *component*."""
    return {
        pair
        for pair in network.live_port_pairs()
        if all(node in component for node, _port in pair)
    }


def check_snapshot(network: Network, root: int, nodes: set, links: set) -> list[str]:
    component = component_of(network, root)
    problems = []
    if nodes != component:
        problems.append(
            f"snapshot@{root}: nodes differ from the component "
            f"(missing {sorted(component - nodes)}, extra {sorted(nodes - component)})"
        )
    expected = live_links_of(network, component)
    if links != expected:
        problems.append(
            f"snapshot@{root}: {len(expected - links)} live links missing, "
            f"{len(links - expected)} extra"
        )
    return problems


def check_snapshot_report(network: Network, root: int, reporter: int, packet) -> list[str]:
    """One in-band snapshot report, decoded as the runtime decodes it."""
    if reporter != root:
        return [f"snapshot@{root}: reported by switch {reporter}"]
    nodes, links = decode_snapshot(packet)
    nodes.add(reporter)
    return check_snapshot(network, root, nodes, links)


def check_critical(network: Network, node: int, verdict: bool | None) -> list[str]:
    expected = node in articulation_points(network.topology)
    if verdict is not expected:
        return [f"critical@{node}: verdict {verdict}, articulation point {expected}"]
    return []


def check_anycast(members: set[int], delivered_at: int | None) -> list[str]:
    if delivered_at not in members:
        return [f"anycast: delivered at {delivered_at}, group is {sorted(members)}"]
    return []


def check_priocast(
    network: Network, root: int, priorities: dict[int, int], delivered_at: int | None
) -> list[str]:
    reachable = component_of(network, root)
    candidates = [m for m in priorities if m in reachable]
    expected = max(candidates, key=lambda m: priorities[m]) if candidates else None
    if delivered_at != expected:
        return [
            f"priocast@{root}: delivered at {delivered_at}, highest-priority "
            f"reachable member is {expected}"
        ]
    return []


def check_in_band(service: str, network: Network, count: int) -> list[str]:
    """Exact DFS count for a snapshot; the Table 2 bound for the others."""
    n = network.topology.num_nodes
    e = network.topology.num_edges
    if service == "snapshot":
        expected = dfs_message_count(n, e)
        if count != expected:
            return [f"snapshot: {count} in-band messages, DFS count is {expected}"]
        return []
    bound = table2_row(service).exact_in_band(n, e)
    if not 0 <= count <= bound:
        return [f"{service}: {count} in-band messages, Table 2 bound is {bound}"]
    return []


def check_storm(
    network: Network, roots: list[int], reports: list, in_band: int
) -> list[list[str]]:
    """Per-trigger problems of one storm: exactly one full-topology report
    per trigger, and the storm's in-band total is the DFS count per trigger.

    *reports* are ``(reporter, packet)`` pairs.  Triggers are matched to
    reports by root, since the root is the switch that reports.
    """
    problems: list[list[str]] = [[] for _ in roots]
    unclaimed: dict[int, list[int]] = {}
    for index, root in enumerate(roots):
        unclaimed.setdefault(root, []).append(index)
    extra = Counter()
    for reporter, packet in reports:
        owners = unclaimed.get(reporter)
        if not owners:
            extra[reporter] += 1
            continue
        index = owners.pop()
        problems[index] = check_snapshot_report(network, roots[index], reporter, packet)
    for indices in unclaimed.values():
        for index in indices:
            problems[index] = [f"storm trigger {index}@{roots[index]}: no report"]
    if extra:
        problems[0].append(f"storm: unexpected extra reports {dict(sorted(extra.items()))}")
    expected = len(roots) * dfs_message_count(
        network.topology.num_nodes, network.topology.num_edges
    )
    if in_band != expected:
        for entry in problems:
            entry.append(f"storm: {in_band} in-band messages, expected {expected}")
    return problems


def check_supervised_snapshot(network: Network, root: int, outcome) -> list[str]:
    """Exact when ok; a degraded answer may only under-approximate."""
    if not outcome.degraded:
        return check_snapshot(network, root, outcome.nodes, outcome.links)
    component = component_of(network, root)
    if outcome.links or not outcome.nodes <= component:
        return [f"snapshot@{root}: degraded answer over-claims"]
    return []


def check_supervised_critical(network: Network, node: int, outcome) -> list[str]:
    if outcome.degraded:
        return [] if outcome.critical is None else [
            f"critical@{node}: degraded answer claims {outcome.critical}"
        ]
    return check_critical(network, node, outcome.critical)


def check_supervised_anycast(members: set[int], outcome) -> list[str]:
    if outcome.degraded and outcome.delivered_at is None:
        return []
    return check_anycast(members, outcome.delivered_at)


def check_readopt(report, victim: int) -> list[str]:
    problems = list(readopt_problems(report))
    if report.converged and victim not in report.reprogrammed_nodes:
        problems.append(f"readopt: rebooted switch {victim} was not reprogrammed")
    return problems
