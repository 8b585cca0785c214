"""Priocast: two-phase delivery to the highest-priority reachable member."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import priocast_message_count
from repro.core.runtime import SmartSouthRuntime
from repro.core.services.anycast import PriocastService
from repro.net.simulator import Network
from repro.net.topology import complete, erdos_renyi, line, ring


def run_priocast(topology, root, priorities, mode="interpreted", fail=()):
    net = Network(topology)
    for u, v in fail:
        net.fail_link(u, v)
    runtime = SmartSouthRuntime(net, mode=mode)
    return runtime.priocast(root, gid=1, priorities={1: priorities})


class TestDelivery:
    def test_highest_priority_wins(self, engine_mode):
        result = run_priocast(ring(8), 0, {2: 10, 5: 30, 7: 20}, mode=engine_mode)
        assert result.delivered_at == 5

    def test_closer_low_priority_loses(self, engine_mode):
        # Node 1 is adjacent to the root but has the lowest priority.
        result = run_priocast(line(6), 0, {1: 1, 5: 9}, mode=engine_mode)
        assert result.delivered_at == 5

    def test_root_is_best(self, engine_mode):
        result = run_priocast(ring(5), 0, {0: 99, 2: 10}, mode=engine_mode)
        assert result.delivered_at == 0

    def test_root_is_only_member(self, engine_mode):
        result = run_priocast(ring(5), 0, {0: 5}, mode=engine_mode)
        assert result.delivered_at == 0

    def test_single_remote_member(self, engine_mode):
        result = run_priocast(line(4), 0, {3: 7}, mode=engine_mode)
        assert result.delivered_at == 3

    def test_no_member_no_delivery(self, engine_mode):
        result = run_priocast(ring(5), 0, {}, mode=engine_mode)
        assert result.delivered_at is None

    def test_exactly_one_delivery(self, engine_mode):
        result = run_priocast(ring(7), 3, {1: 5, 5: 5, 6: 4}, mode=engine_mode)
        assert len(result.deliveries) == 1

    def test_equal_priorities_pick_first_bidder(self, engine_mode):
        # Phase 1 updates opt only on strictly higher priority, so the first
        # equal-priority member in DFS order wins.
        result = run_priocast(line(6), 0, {2: 5, 4: 5}, mode=engine_mode)
        assert result.delivered_at == 2

    def test_zero_out_band(self, engine_mode):
        result = run_priocast(ring(6), 0, {3: 2}, mode=engine_mode)
        assert result.out_band_messages == 0

    def test_two_phase_message_cost(self, engine_mode):
        topo = erdos_renyi(12, 0.3, seed=3)
        result = run_priocast(topo, 0, {11: 5}, mode=engine_mode)
        bound = priocast_message_count(12, topo.num_edges)
        assert result.in_band_messages <= bound
        # And it genuinely used a second phase (more than one full DFS).
        assert result.in_band_messages > bound // 2


class TestRobustness:
    def test_unreachable_best_falls_back(self, engine_mode):
        topo = ring(8)
        # Best member 4 is cut off; 6 must win.
        result = run_priocast(
            topo, 0, {4: 99, 6: 10}, fail=[(3, 4), (4, 5)], mode=engine_mode
        )
        assert result.delivered_at == 6

    def test_failover_route_still_finds_best(self, engine_mode):
        topo = ring(8)
        result = run_priocast(topo, 0, {4: 99, 6: 10}, fail=[(1, 2)], mode=engine_mode)
        assert result.delivered_at == 4

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 14), st.integers(0, 500), st.data())
    def test_best_reachable_member_property(self, n, seed, data):
        topo = erdos_renyi(n, 0.3, seed=seed)
        members = data.draw(
            st.dictionaries(
                st.integers(0, n - 1), st.integers(1, 200), min_size=1, max_size=5
            )
        )
        root = data.draw(st.integers(0, n - 1))
        result = run_priocast(topo, root, members)
        best = max(members.values())
        winners = {node for node, prio in members.items() if prio == best}
        assert result.delivered_at in winners


class TestServiceConfig:
    def test_add_member_and_lookup(self):
        service = PriocastService()
        service.add_member(1, 4, 10)
        assert service.priority_of(4, 1) == 10
        assert service.groups_of(4) == {1}

    def test_priority_bounds(self):
        service = PriocastService()
        with pytest.raises(ValueError):
            service.add_member(1, 4, 0)
        with pytest.raises(ValueError):
            service.add_member(1, 4, 256)

    def test_nonpositive_gid_rejected(self):
        with pytest.raises(ValueError):
            PriocastService().add_member(0, 1, 1)

    def test_out_of_range_config_rejected_at_construction(self, engine_mode):
        # Both engines reject a bad mapping the same way, before any rules
        # are compiled or any packet moves.
        runtime = SmartSouthRuntime(complete(5), mode=engine_mode)
        with pytest.raises(ValueError, match=r"priority must be in \[1, 255\]"):
            runtime.priocast(0, 2, {2: {4: 1000}})
        with pytest.raises(ValueError, match="group ids must be positive"):
            runtime.anycast(0, 0, {0: {4}})
        assert runtime.network.trace.in_band_messages == 0
