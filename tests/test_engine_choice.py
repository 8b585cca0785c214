"""The packet engine is chosen once, on the Network, and reaches every
switch compiled for it — including switches built after the first install."""

from __future__ import annotations

import pytest

from repro.control.channel import ControlChannel
from repro.control.supervisor import SupervisedRuntime
from repro.core.engine import MultiServiceEngine
from repro.core.services.base import PlainTraversalService
from repro.core.services.critical import CriticalNodeService
from repro.core.services.snapshot import SnapshotService
from repro.net.simulator import Network
from repro.net.topology import grid, ring

pytestmark = pytest.mark.parametrize("fast_path", [False, True])


def _supervised(topology, fast_path: bool):
    network = Network(topology, fast_path=fast_path)
    runtime = SupervisedRuntime(
        network, mode="compiled", channel=ControlChannel(network)
    )
    assert runtime.snapshot(0).ok
    return network, runtime


def test_multiservice_switches_follow_network(fast_path):
    network = Network(ring(5), fast_path=fast_path)
    services = [SnapshotService(), PlainTraversalService(), CriticalNodeService()]
    engine = MultiServiceEngine(network, services, mode="compiled")
    engine.install()
    assert sorted(engine.switches) == list(range(5))
    assert all(
        switch.fast_path_enabled == network.fast_path
        for switch in engine.switches.values()
    )
    assert engine.trigger(SnapshotService.service_id, 0).reports


def test_resynchronize_replacement_follows_network(fast_path):
    network, runtime = _supervised(grid(3, 3), fast_path)
    (victim,) = runtime.switches_at(4)
    victim.crash()
    victim.reboot()  # factory-fresh: its digest no longer matches
    report = runtime.resynchronize(0)
    assert report.converged
    assert 4 in report.reprogrammed_nodes
    (replacement,) = runtime.switches_at(4)
    assert replacement is not victim
    assert replacement.fast_path_enabled == network.fast_path


def test_readopt_repair_follows_network(fast_path):
    network, runtime = _supervised(ring(4), fast_path)
    (victim,) = runtime.switches_at(2)
    victim.crash()
    victim.reboot()
    report = runtime.readopt()
    assert report.converged
    assert report.reprogrammed_nodes == [2]
    (repaired,) = runtime.switches_at(2)
    assert repaired is victim
    assert repaired.fast_path_enabled == network.fast_path
